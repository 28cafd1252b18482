open Sjos_cost

type provider = { node_card : int -> float; cluster_card : int -> float }

let constant_provider c =
  { node_card = (fun _ -> c); cluster_card = (fun _ -> c) }

let mask_nodes mask =
  let rec go i acc =
    if 1 lsl i > mask then List.rev acc
    else if mask land (1 lsl i) <> 0 then go (i + 1) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let join_cost factors algo ~anc ~output =
  match algo with
  | Plan.Stack_tree_anc -> Cost_model.stack_tree_anc factors ~anc ~output
  | Plan.Stack_tree_desc -> Cost_model.stack_tree_desc factors ~anc

let operator_cost factors provider = function
  | Plan.Index_scan i -> Cost_model.index_access factors (provider.node_card i)
  | Plan.Holistic { mask; paths; _ } ->
      let candidates =
        List.fold_left
          (fun acc i -> acc +. provider.node_card i)
          0.0 (mask_nodes mask)
      in
      let path_solutions =
        List.fold_left
          (fun acc p -> acc +. provider.cluster_card p)
          0.0 paths
      in
      Cost_model.twig factors ~candidates ~path_solutions
  | Plan.Sort { input; _ } ->
      Cost_model.sort factors (provider.cluster_card (Plan.nodes_mask input))
  | Plan.Structural_join { anc_side; desc_side; algo; _ } ->
      let anc = provider.cluster_card (Plan.nodes_mask anc_side) in
      let output =
        provider.cluster_card
          (Plan.nodes_mask anc_side lor Plan.nodes_mask desc_side)
      in
      join_cost factors algo ~anc ~output

let cost factors provider _pat plan =
  Plan.fold (fun acc op -> acc +. operator_cost factors provider op) 0.0 plan
