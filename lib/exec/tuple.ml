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

(* Inline array literals are minor-heap allocations with no C call; every
   workload pattern has at most 8 nodes, so [Array.sub]'s C call is left
   to wider rows.  [at] is closed, so it inlines; a getter capturing [a]
   would cost a closure allocation per row without flambda. *)
let at (a : int array) i = Array.unsafe_get a i

let of_slice a b width : t =
  match width with
  | 1 -> [| at a b |]
  | 2 -> [| at a b; at a (b + 1) |]
  | 3 -> [| at a b; at a (b + 1); at a (b + 2) |]
  | 4 -> [| at a b; at a (b + 1); at a (b + 2); at a (b + 3) |]
  | 5 -> [| at a b; at a (b + 1); at a (b + 2); at a (b + 3); at a (b + 4) |]
  | 6 ->
      [| at a b; at a (b + 1); at a (b + 2); at a (b + 3); at a (b + 4);
         at a (b + 5) |]
  | 7 ->
      [| at a b; at a (b + 1); at a (b + 2); at a (b + 3); at a (b + 4);
         at a (b + 5); at a (b + 6) |]
  | 8 ->
      [| at a b; at a (b + 1); at a (b + 2); at a (b + 3); at a (b + 4);
         at a (b + 5); at a (b + 6); at a (b + 7) |]
  | _ -> Array.sub a b width

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
