type t = {
  arr : Node.t array;
  max_pos : int;
  cols_m : Mutex.t;
  mutable cols : Cols.t option;
}

(* The id check already visits every node, so the extent of the position
   space is taken in the same pass rather than by a fold per call, and so
   is the check that starts increase with ids: the kernels order rows by
   node id where they mean document order. *)
let of_nodes arr =
  let max_end = ref 0 and last_start = ref min_int in
  Array.iteri
    (fun i (n : Node.t) ->
      if n.Node.id <> i then
        invalid_arg
          (Printf.sprintf "Document.of_nodes: node at index %d has id %d" i
             n.Node.id);
      if n.Node.start_pos <= !last_start then
        invalid_arg
          (Printf.sprintf
             "Document.of_nodes: node %d starts at %d, not after node %d" i
             n.Node.start_pos (i - 1));
      last_start := n.Node.start_pos;
      if n.Node.end_pos > !max_end then max_end := n.Node.end_pos)
    arr;
  { arr; max_pos = !max_end + 1; cols_m = Mutex.create (); cols = None }

(* The cache fill runs under [cols_m] so concurrent domains share one
   columns record instead of racing to build duplicates.  The unlocked
   fast-path read is safe: [cols] only ever goes [None -> Some c] with
   [c] fully initialized before the (atomic, word-sized) field write. *)
let positions t =
  match t.cols with
  | Some c -> c
  | None ->
      Mutex.lock t.cols_m;
      let c =
        match t.cols with
        | Some c -> c
        | None ->
            let n = Array.length t.arr in
            let ids = Array.make n 0
            and starts = Array.make n 0
            and ends = Array.make n 0
            and levels = Array.make n 0 in
            for i = 0 to n - 1 do
              let node = Array.unsafe_get t.arr i in
              Array.unsafe_set ids i i;
              Array.unsafe_set starts i node.Node.start_pos;
              Array.unsafe_set ends i node.Node.end_pos;
              Array.unsafe_set levels i node.Node.level
            done;
            let c = { Cols.ids; starts; ends; levels } in
            t.cols <- Some c;
            c
      in
      Mutex.unlock t.cols_m;
      c

let size t = Array.length t.arr

let node t id =
  if id < 0 || id >= Array.length t.arr then
    invalid_arg (Printf.sprintf "Document.node: id %d out of range" id);
  t.arr.(id)

let root t =
  if Array.length t.arr = 0 then invalid_arg "Document.root: empty document";
  t.arr.(0)

let nodes t = t.arr

let is_descendant ~(anc : Node.t) ~(desc : Node.t) =
  anc.Node.start_pos < desc.Node.start_pos
  && desc.Node.end_pos < anc.Node.end_pos

(* Children and descendants of [n] occupy a contiguous id range starting
   right after [n] in pre-order; scan it. *)
let descendants t (n : Node.t) =
  let acc = ref [] in
  let i = ref (n.Node.id + 1) in
  let len = Array.length t.arr in
  while
    !i < len
    &&
    let m = t.arr.(!i) in
    is_descendant ~anc:n ~desc:m
  do
    acc := t.arr.(!i) :: !acc;
    incr i
  done;
  List.rev !acc

let children t (n : Node.t) =
  List.filter (fun (m : Node.t) -> m.Node.parent = n.Node.id) (descendants t n)

let parent t (n : Node.t) =
  if n.Node.parent = Node.root_parent then None else Some (node t n.Node.parent)

let ancestors t n =
  let rec up acc m =
    match parent t m with None -> List.rev acc | Some p -> up (p :: acc) p
  in
  up [] n

let iter f t = Array.iter f t.arr
let fold f init t = Array.fold_left f init t.arr

let tags t =
  let module S = Set.Make (String) in
  let s = fold (fun s n -> S.add n.Node.tag s) S.empty t in
  S.elements s

let count_tag t tag =
  fold (fun c (n : Node.t) -> if String.equal n.Node.tag tag then c + 1 else c) 0 t

let max_level t = fold (fun m (n : Node.t) -> max m n.Node.level) 0 t
let max_pos t = t.max_pos

let validate t =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_node i (n : Node.t) =
    let* () = if n.Node.id = i then Ok () else err "node %d: bad id" i in
    let* () =
      if n.Node.start_pos < n.Node.end_pos then Ok ()
      else err "node %d: empty interval" i
    in
    if i = 0 then
      if n.Node.parent = Node.root_parent && n.Node.level = 0 then Ok ()
      else err "root: bad parent/level"
    else
      let* () =
        if n.Node.parent >= 0 && n.Node.parent < i then Ok ()
        else err "node %d: parent %d not before node" i n.Node.parent
      in
      let p = t.arr.(n.Node.parent) in
      let* () =
        if is_descendant ~anc:p ~desc:n then Ok ()
        else err "node %d: interval not nested in parent" i
      in
      if n.Node.level = p.Node.level + 1 then Ok ()
      else err "node %d: level not parent+1" i
  in
  let rec go i =
    if i >= Array.length t.arr then Ok ()
    else
      let* () = check_node i t.arr.(i) in
      go (i + 1)
  in
  let* () = go 0 in
  (* pre-order: start positions strictly increase with id *)
  let rec mono i =
    if i + 1 >= Array.length t.arr then Ok ()
    else if t.arr.(i).Node.start_pos < t.arr.(i + 1).Node.start_pos then
      mono (i + 1)
    else err "nodes %d,%d: start positions not increasing" i (i + 1)
  in
  mono 0
