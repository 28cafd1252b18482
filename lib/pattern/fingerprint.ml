open Sjos_xml
open Sjos_storage

(* Length-prefix every label so that no concatenation of labels, axes and
   separators can collide with a differently-shaped pattern. *)
let enc s = string_of_int (String.length s) ^ ":" ^ s

let node_code pat =
  let rec code i =
    let mark = if Pattern.order_by pat = Some i then "!" else "" in
    let label = enc (Candidate.spec_to_string (Pattern.label pat i)) in
    let kids =
      Pattern.children_of pat i
      |> List.map (fun (j, (e : Pattern.edge)) ->
             Axes.axis_to_string e.Pattern.axis ^ code j)
      |> List.sort String.compare
    in
    mark ^ label ^ "(" ^ String.concat "," kids ^ ")"
  in
  code

let structure pat = node_code pat 0

let canonical pat =
  let n = Pattern.node_count pat in
  let code = node_code pat in
  (* memoize per node: code is recomputed along every root path otherwise *)
  let codes = Array.init n code in
  let to_new = Array.make n (-1) in
  let next = ref 0 in
  let rec assign i =
    to_new.(i) <- !next;
    incr next;
    Pattern.children_of pat i
    |> List.map (fun (j, (e : Pattern.edge)) ->
           (Axes.axis_to_string e.Pattern.axis ^ codes.(j), j))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.iter (fun (_, j) -> assign j)
  in
  assign 0;
  let from_new = Array.make n 0 in
  Array.iteri (fun old nw -> from_new.(nw) <- old) to_new;
  let labels = Array.init n (fun nw -> Pattern.label pat from_new.(nw)) in
  let edges =
    Pattern.edges pat
    |> List.map (fun (e : Pattern.edge) ->
           (to_new.(e.Pattern.anc), e.Pattern.axis, to_new.(e.Pattern.desc)))
    |> List.sort compare |> Array.of_list
  in
  let order_by =
    Option.map (fun o -> to_new.(o)) (Pattern.order_by pat)
  in
  (Pattern.create ?order_by ~labels ~edges (), to_new)

let fingerprint pat =
  let payload =
    string_of_int (Pattern.node_count pat) ^ "#" ^ structure pat
  in
  Digest.to_hex (Digest.string payload)

let short fp = if String.length fp <= 12 then fp else String.sub fp 0 12

let structurally_equal a b = String.equal (fingerprint a) (fingerprint b)
