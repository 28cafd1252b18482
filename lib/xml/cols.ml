type t = {
  ids : int array;
  starts : int array;
  ends : int array;
  levels : int array;
}

let empty = { ids = [||]; starts = [||]; ends = [||]; levels = [||] }

let length c = Array.length c.ids

let filter keep c =
  let n = length c in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if keep i then incr count
  done;
  if !count = n then c
  else begin
    let k = !count in
    let ids = Array.make k 0
    and starts = Array.make k 0
    and ends = Array.make k 0
    and levels = Array.make k 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep i then begin
        let r = !j in
        Array.unsafe_set ids r (Array.unsafe_get c.ids i);
        Array.unsafe_set starts r (Array.unsafe_get c.starts i);
        Array.unsafe_set ends r (Array.unsafe_get c.ends i);
        Array.unsafe_set levels r (Array.unsafe_get c.levels i);
        j := r + 1
      end
    done;
    { ids; starts; ends; levels }
  end

let equal a b =
  a.ids = b.ids && a.starts = b.starts && a.ends = b.ends
  && a.levels = b.levels
