open Sjos_xml
open Sjos_storage

type canonical = {
  fingerprint : string;
  to_canon : int array;
  of_canon : int array;
}

(* Length-prefix every label so that no concatenation of labels, axes and
   separators can collide with a differently-shaped pattern. *)
let enc s = string_of_int (String.length s) ^ ":" ^ s

let canonical pat =
  let n = Pattern.node_count pat in
  let order_by = Pattern.order_by pat in
  (* one bottom-up walk: a node's structure code from its children's,
     and its subtree's nodes in canonical preorder, children sorted by
     axis and code (stably, so identical twins keep their [children_of]
     order) *)
  let rec walk i =
    let kids =
      Pattern.children_of pat i
      |> List.map (fun (j, (e : Pattern.edge)) ->
             let code, nodes = walk j in
             (Axes.axis_to_string e.Pattern.axis ^ code, nodes))
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let mark = if order_by = Some i then "!" else "" in
    let label = enc (Candidate.spec_to_string (Pattern.label pat i)) in
    ( mark ^ label ^ "(" ^ String.concat "," (List.map fst kids) ^ ")",
      i :: List.concat_map snd kids )
  in
  let code, preorder = walk 0 in
  let of_canon = Array.of_list preorder in
  let to_canon = Array.make n 0 in
  Array.iteri (fun k i -> to_canon.(i) <- k) of_canon;
  let payload = string_of_int n ^ "#" ^ code in
  { fingerprint = Digest.to_hex (Digest.string payload); to_canon; of_canon }

let fingerprint pat = (canonical pat).fingerprint
let short fp = if String.length fp <= 12 then fp else String.sub fp 0 12
