open Sjos_pattern

type algo = Stack_tree_anc | Stack_tree_desc

type t =
  | Index_scan of int
  | Structural_join of {
      anc_side : t;
      desc_side : t;
      edge : Pattern.edge;
      algo : algo;
    }
  | Sort of { input : t; by : int }
  | Holistic of { mask : int; order : int; paths : int list }

let algo_to_string = function
  | Stack_tree_anc -> "STJ-Anc"
  | Stack_tree_desc -> "STJ-Desc"

let scan i = Index_scan i
let join ~anc_side ~desc_side ~edge ~algo = Structural_join { anc_side; desc_side; edge; algo }
let sort input ~by = Sort { input; by }

(* Root-to-leaf path masks, sorted for a canonical representation: the
   holistic operator's cost (and its identity under [equal]) depends only
   on the set of paths, not on leaf enumeration order. *)
let path_masks pat =
  let n = Pattern.node_count pat in
  let rec up j acc =
    let acc = acc lor (1 lsl j) in
    match Pattern.parent_of pat j with None -> acc | Some (p, _) -> up p acc
  in
  List.init n Fun.id
  |> List.filter (fun i -> Pattern.children_of pat i = [])
  |> List.map (fun leaf -> up leaf 0)
  |> List.sort_uniq compare

let holistic_of_pattern pat =
  let h =
    Holistic
      {
        mask = (1 lsl Pattern.node_count pat) - 1;
        order = 0;
        paths = path_masks pat;
      }
  in
  match Pattern.order_by pat with
  | Some by when by <> 0 -> Sort { input = h; by }
  | _ -> h

let rec nodes_mask = function
  | Index_scan i -> 1 lsl i
  | Structural_join { anc_side; desc_side; _ } ->
      nodes_mask anc_side lor nodes_mask desc_side
  | Sort { input; _ } -> nodes_mask input
  | Holistic { mask; _ } -> mask

let ordered_by = function
  | Index_scan i -> i
  | Structural_join { edge; algo; _ } -> (
      match algo with
      | Stack_tree_anc -> edge.Pattern.anc
      | Stack_tree_desc -> edge.Pattern.desc)
  | Sort { by; _ } -> by
  | Holistic { order; _ } -> order

let rec join_count = function
  | Index_scan _ | Holistic _ -> 0
  | Structural_join { anc_side; desc_side; _ } ->
      1 + join_count anc_side + join_count desc_side
  | Sort { input; _ } -> join_count input

let rec sort_count = function
  | Index_scan _ | Holistic _ -> 0
  | Structural_join { anc_side; desc_side; _ } ->
      sort_count anc_side + sort_count desc_side
  | Sort { input; _ } -> 1 + sort_count input

let rec fold f acc t =
  let acc = f acc t in
  match t with
  | Index_scan _ | Holistic _ -> acc
  | Structural_join { anc_side; desc_side; _ } ->
      fold f (fold f acc anc_side) desc_side
  | Sort { input; _ } -> fold f acc input

let uses_holistic plan =
  fold (fun acc op -> acc || match op with Holistic _ -> true | _ -> false)
    false plan

let remap_mask f m =
  let rec go i acc =
    if 1 lsl i > m then acc
    else if m land (1 lsl i) <> 0 then go (i + 1) (acc lor (1 lsl f i))
    else go (i + 1) acc
  in
  go 0 0

let rec map_nodes f = function
  | Index_scan i -> Index_scan (f i)
  | Structural_join { anc_side; desc_side; edge; algo } ->
      Structural_join
        {
          anc_side = map_nodes f anc_side;
          desc_side = map_nodes f desc_side;
          edge =
            {
              Pattern.anc = f edge.Pattern.anc;
              desc = f edge.Pattern.desc;
              axis = edge.Pattern.axis;
            };
          algo;
        }
  | Sort { input; by } -> Sort { input = map_nodes f input; by = f by }
  | Holistic { mask; order; paths } ->
      Holistic
        {
          mask = remap_mask f mask;
          order = f order;
          paths = List.sort_uniq compare (List.map (remap_mask f) paths);
        }

let equal = ( = )
