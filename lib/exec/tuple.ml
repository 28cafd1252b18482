open Sjos_xml

type t = int array

let unbound = -1
let create width = Array.make width unbound

let singleton ~width slot (node : Node.t) =
  let t = create width in
  t.(slot) <- node.Node.id;
  t

let get t slot = t.(slot)

let is_bound t slot = t.(slot) <> unbound

(* Monomorphic int loop; no closure per slot. *)
let merge a b =
  let width = Array.length a in
  if Array.length b <> width then invalid_arg "Tuple.merge: width mismatch";
  let out = Array.make width unbound in
  for i = 0 to width - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    if x = unbound then Array.unsafe_set out i y
    else if y = unbound then Array.unsafe_set out i x
    else invalid_arg "Tuple.merge: slot bound on both sides"
  done;
  out

let bound_mask t =
  let m = ref 0 in
  Array.iteri (fun i v -> if v <> unbound then m := !m lor (1 lsl i)) t;
  !m

let to_string t =
  "("
  ^ String.concat ","
      (Array.to_list
         (Array.map (fun v -> if v = unbound then "_" else string_of_int v) t))
  ^ ")"

(* Monomorphic int-array comparison instead of polymorphic ( = ). *)
let equal a b =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i =
    i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
  in
  go 0

let compare_by_slot doc slot a b =
  Int.compare
    (Document.node doc a.(slot)).Node.start_pos
    (Document.node doc b.(slot)).Node.start_pos
