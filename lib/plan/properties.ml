open Sjos_pattern

let validate pat plan =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = Pattern.node_count pat in
  let rec check = function
    | Plan.Index_scan i ->
        if i < 0 || i >= n then err "scan of unknown pattern node %d" i
        else Ok ()
    | Plan.Holistic { mask; order; paths } ->
        (* the holistic operator always evaluates the whole pattern; a
           partial twig has no binary-algebra equivalent to compare with *)
        if mask <> (1 lsl n) - 1 then err "holistic twig does not bind every node"
        else if order < 0 || order >= n then
          err "holistic twig ordered by unknown node %d" order
        else if paths <> Plan.path_masks pat then
          err "holistic twig paths do not match the pattern"
        else Ok ()
    | Plan.Sort { input; by } ->
        let* () = check input in
        if Plan.nodes_mask input land (1 lsl by) = 0 then
          err "sort by node %s not bound by its input" (Pattern.name pat by)
        else Ok ()
    | Plan.Structural_join { anc_side; desc_side; edge; _ } ->
        let* () = check anc_side in
        let* () = check desc_side in
        let { Pattern.anc; desc; axis } = edge in
        let* () =
          match Pattern.edge_between pat anc desc with
          | Some e when e.Pattern.anc = anc && e.Pattern.axis = axis -> Ok ()
          | Some e when e.Pattern.anc = anc ->
              err "join on edge %d-%d with the wrong axis" anc desc
          | _ -> err "join on a non-edge %d-%d" anc desc
        in
        let ma = Plan.nodes_mask anc_side and md = Plan.nodes_mask desc_side in
        let* () =
          if ma land md <> 0 then err "join inputs overlap" else Ok ()
        in
        let* () =
          if ma land (1 lsl anc) = 0 then
            err "ancestor side does not bind %s" (Pattern.name pat anc)
          else Ok ()
        in
        let* () =
          if md land (1 lsl desc) = 0 then
            err "descendant side does not bind %s" (Pattern.name pat desc)
          else Ok ()
        in
        let* () =
          if Plan.ordered_by anc_side <> anc then
            err "ancestor side not ordered by %s" (Pattern.name pat anc)
          else Ok ()
        in
        if Plan.ordered_by desc_side <> desc then
          err "descendant side not ordered by %s" (Pattern.name pat desc)
        else Ok ()
  in
  let* () = check plan in
  let full = (1 lsl n) - 1 in
  let* () =
    if Plan.nodes_mask plan <> full then err "plan does not bind every node"
    else Ok ()
  in
  (* n nodes and n-1 joins with disjoint inputs imply each node scanned
     exactly once and each edge joined exactly once.  A holistic twig
     covers all nodes and edges by itself, so it admits no joins at all:
     since its mask is full, the join-input disjointness check above
     already rules out any Structural_join around it. *)
  let holistics =
    Plan.fold
      (fun acc op -> match op with Plan.Holistic _ -> acc + 1 | _ -> acc)
      0 plan
  in
  if holistics > 1 then err "plan contains %d holistic operators" holistics
  else if holistics = 1 then
    if Plan.join_count plan <> 0 then
      err "holistic plan must not contain binary joins"
    else Ok ()
  else if Plan.join_count plan <> n - 1 then
    err "expected %d joins, found %d" (n - 1) (Plan.join_count plan)
  else Ok ()

let is_valid pat plan = Result.is_ok (validate pat plan)
let is_fully_pipelined plan = Plan.sort_count plan = 0

let is_left_deep plan =
  let rec composite = function
    | Plan.Index_scan _ | Plan.Holistic _ -> false
    | Plan.Sort { input; _ } -> composite input
    | Plan.Structural_join _ -> true
  in
  let rec check = function
    | Plan.Index_scan _ | Plan.Holistic _ -> true
    | Plan.Sort { input; _ } -> check input
    | Plan.Structural_join { anc_side; desc_side; _ } ->
        (not (composite anc_side && composite desc_side))
        && check anc_side && check desc_side
  in
  check plan

let is_bushy plan = not (is_left_deep plan)

let covers pat plan =
  Plan.nodes_mask plan = (1 lsl Pattern.node_count pat) - 1
