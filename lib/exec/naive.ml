open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan

(* The oracle reads only the document: a pattern node's candidates are
   the document's nodes that satisfy its label, found by a filter, never
   by the element index the engine scans. *)
let satisfying index spec =
  List.filter (Candidate.matches spec)
    (Array.to_list (Document.nodes (Element_index.document index)))

(* Matches of the sub-pattern induced by [mask] (or the whole pattern),
   computed by recursive search from each candidate of the cluster root. *)
let cluster_matches index pat mask =
  let width = Pattern.node_count pat in
  let in_mask i = mask land (1 lsl i) <> 0 in
  let candidates =
    Array.init width (fun i ->
        if in_mask i then satisfying index (Pattern.label pat i) else [])
  in
  (* root of the cluster: the member whose tree parent is outside *)
  let root =
    let rec first i = if in_mask i then i else first (i + 1) in
    let rec up i =
      match Pattern.parent_of pat i with
      | Some (p, _) when in_mask p -> up p
      | _ -> i
    in
    up (first 0)
  in
  let rec sub u (x : Node.t) : Tuple.t list =
    let base = Tuple.singleton ~width u x in
    List.fold_left
      (fun acc (c, (e : Pattern.edge)) ->
        if not (in_mask c) then acc
        else begin
          let child_tuples =
            candidates.(c)
            |> List.filter (fun y -> Axes.related e.Pattern.axis ~anc:x ~desc:y)
            |> List.concat_map (sub c)
          in
          List.concat_map
            (fun t -> List.map (fun ct -> Tuple.merge t ct) child_tuples)
            acc
        end)
      [ base ]
      (Pattern.children_of pat u)
  in
  List.concat_map (sub root) candidates.(root)

let matches index pat =
  cluster_matches index pat ((1 lsl Pattern.node_count pat) - 1)

let count index pat = List.length (matches index pat)
let cluster_count index pat mask = List.length (cluster_matches index pat mask)

let exact_provider index pat =
  let memo = Hashtbl.create 32 in
  let cluster_card mask =
    match Hashtbl.find_opt memo mask with
    | Some c -> c
    | None ->
        let c = float_of_int (cluster_count index pat mask) in
        Hashtbl.replace memo mask c;
        c
  in
  {
    Costing.node_card =
      (fun i ->
        float_of_int (List.length (satisfying index (Pattern.label pat i))));
    cluster_card;
  }
