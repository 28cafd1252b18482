open Sjos_xml
open Sjos_storage

let path labels axes =
  let n = List.length labels in
  if List.length axes <> n - 1 then
    invalid_arg "Shapes.path: need one axis per edge";
  let edges = List.mapi (fun i axis -> (i, axis, i + 1)) axes in
  Pattern.create ~labels:(Array.of_list labels) ~edges:(Array.of_list edges) ()

let shape name ~nodes ~structure labels axes =
  if Array.length labels <> nodes then
    invalid_arg (Printf.sprintf "Shapes.%s: expected %d labels" name nodes);
  if Array.length axes <> nodes - 1 then
    invalid_arg (Printf.sprintf "Shapes.%s: expected %d axes" name (nodes - 1));
  let edges = Array.mapi (fun i (anc, desc) -> (anc, axes.(i), desc)) structure in
  Pattern.create ~labels ~edges ()

let a labels axes = shape "a" ~nodes:3 ~structure:[| (0, 1); (1, 2) |] labels axes

let b labels axes =
  shape "b" ~nodes:4 ~structure:[| (0, 1); (0, 2); (2, 3) |] labels axes

let c labels axes =
  shape "c" ~nodes:5 ~structure:[| (0, 1); (1, 2); (0, 3); (3, 4) |] labels axes

let d labels axes =
  shape "d" ~nodes:6
    ~structure:[| (0, 1); (1, 2); (0, 3); (3, 4); (4, 5) |]
    labels axes

let of_tags make tags axes =
  make
    (Array.of_list (List.map Candidate.of_tag tags))
    (Array.of_list axes)

(* ---------- seeded generator for large patterns ----------

   The survey's shape classes for tree patterns: deep chains of [//]
   steps, bushy stars (one hub, many arms), balanced branching, and a
   mixed class with uniform random attachment.  Labels draw from a small
   tag alphabet with occasional wildcards, axes mix [/] and [//], and a
   quarter of the patterns carry an order-by node — everything the
   large-pattern optimizer tier must face.

   The RNG is an inline splitmix64: this library depends only on the
   xml/storage layers, and the generator must be bit-stable across OCaml
   versions (no [Random]). *)

type gen_shape = Chain | Star | Balanced | Mixed

let gen_shape_name = function
  | Chain -> "chain"
  | Star -> "star"
  | Balanced -> "balanced"
  | Mixed -> "mixed"

let all_gen_shapes = [ Chain; Star; Balanced; Mixed ]

let gen_tags = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

let generate ~seed ~nodes shape =
  if nodes < 1 then invalid_arg "Shapes.generate: need at least one node";
  (* splitmix64 over Int64, truncated to 30 positive bits per draw *)
  let state =
    ref
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.of_int
            (match shape with Chain -> 1 | Star -> 2 | Balanced -> 3 | Mixed -> 4)))
  in
  let next () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.logand z 0x3FFFFFFFL)
  in
  let rand bound = if bound <= 1 then 0 else next () mod bound in
  let wildcard_pct = match shape with Mixed -> 25 | _ -> 12 in
  let label () =
    if rand 100 < wildcard_pct then Candidate.any
    else Candidate.of_tag gen_tags.(rand (Array.length gen_tags))
  in
  let axis () =
    match shape with
    (* deep-[//] chains are the survey's first class; keep them mostly
       descendant edges *)
    | Chain -> if rand 4 < 3 then Axes.Descendant else Axes.Child
    | _ -> if rand 2 = 0 then Axes.Descendant else Axes.Child
  in
  let hub_children = ref 0 in
  let parent i =
    match shape with
    | Chain -> i - 1
    | Star ->
        (* bushy: most nodes hang off the hub, a few extend short arms.
           Once the nodes left are only just enough to give the hub a
           third of them as children, they all join the hub (the draw
           still happens, so the stream does not shift). *)
        let to_hub =
          i = 1
          || (let drawn = rand 10 < 7 in
              drawn || !hub_children + (nodes - i) <= nodes / 3)
        in
        if to_hub then begin
          incr hub_children;
          0
        end
        else 1 + rand (i - 1)
    | Balanced -> (i - 1) / 2
    | Mixed -> rand i
  in
  let labels = Array.init nodes (fun _ -> label ()) in
  let edges =
    Array.init (max 0 (nodes - 1)) (fun k ->
        let child = k + 1 in
        (parent child, axis (), child))
  in
  let order_by = if nodes > 1 && rand 4 = 0 then Some (rand nodes) else None in
  Pattern.create ?order_by ~labels ~edges ()

let complete_tree ~fanout ~depth label axis =
  if fanout < 1 || depth < 0 then invalid_arg "Shapes.complete_tree";
  let labels = ref [] and edges = ref [] and next = ref 0 in
  let rec build d =
    let idx = !next in
    incr next;
    labels := label :: !labels;
    if d < depth then
      for _ = 1 to fanout do
        let child = build (d + 1) in
        edges := (idx, axis, child) :: !edges
      done;
    idx
  in
  let root = build 0 in
  assert (root = 0);
  (* edges were accumulated in reverse discovery order; any order is fine
     for Pattern.create as long as directions are root-to-leaf *)
  Pattern.create
    ~labels:(Array.of_list (List.rev !labels))
    ~edges:(Array.of_list (List.rev !edges))
    ()
