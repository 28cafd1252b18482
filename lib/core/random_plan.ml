open Sjos_pattern
open Sjos_cost
open Sjos_plan

let generate rng ctx =
  let rec loop (s : Status.t) =
    if Status.is_final s then Search.finalize ctx s
    else begin
      let remaining = Search.remaining_edges ctx s in
      let edge_idx, e =
        List.nth remaining (Random.State.int rng (List.length remaining))
      in
      let cu = Status.cluster_of s e.Pattern.anc in
      let cv = Status.cluster_of s e.Pattern.desc in
      (* Sort any input that is not ordered by its join node — this is what
         makes arbitrary join orders legal, and expensive. *)
      let prepare (c : Status.cluster) node =
        if c.Status.order = node then (c.Status.plan, 0.0)
        else
          ( Plan.sort c.Status.plan ~by:node,
            Cost_model.sort ctx.Search.factors c.Status.card )
      in
      let anc_plan, anc_sort = prepare cu e.Pattern.anc in
      let desc_plan, desc_sort = prepare cv e.Pattern.desc in
      let algo =
        if Random.State.bool rng then Plan.Stack_tree_anc
        else Plan.Stack_tree_desc
      in
      let merged_mask = cu.Status.mask lor cv.Status.mask in
      let merged_card = ctx.Search.provider.Costing.cluster_card merged_mask in
      let join_cost =
        match algo with
        | Plan.Stack_tree_anc ->
            Cost_model.stack_tree_anc ctx.Search.factors ~anc:cu.Status.card
              ~output:merged_card
        | Plan.Stack_tree_desc ->
            Cost_model.stack_tree_desc ctx.Search.factors ~anc:cu.Status.card
      in
      let order =
        match algo with
        | Plan.Stack_tree_anc -> e.Pattern.anc
        | Plan.Stack_tree_desc -> e.Pattern.desc
      in
      let merged =
        {
          Status.mask = merged_mask;
          order;
          plan = Plan.join ~anc_side:anc_plan ~desc_side:desc_plan ~edge:e ~algo;
          card = merged_card;
        }
      in
      let clusters =
        merged
        :: List.filter
             (fun (c : Status.cluster) ->
               c.Status.mask <> cu.Status.mask && c.Status.mask <> cv.Status.mask)
             s.Status.clusters
        |> List.sort (fun (a : Status.cluster) b ->
               compare a.Status.mask b.Status.mask)
      in
      let w = ctx.Search.work in
      w.Sjos_obs.Work.plans_considered <-
        w.Sjos_obs.Work.plans_considered + 1;
      loop
        {
          Status.clusters;
          joined = s.Status.joined lor (1 lsl edge_idx);
          cost = s.Status.cost +. anc_sort +. desc_sort +. join_cost;
        }
    end
  in
  loop
    (Status.start ~factors:ctx.Search.factors ~provider:ctx.Search.provider
       ctx.Search.pat)

let sample ?(seed = 42) ctx k =
  let rng = Random.State.make [| seed |] in
  List.init k (fun _ -> generate rng ctx)

let pick ?seed ctx k better =
  if k < 1 then invalid_arg "Random_plan: need at least one sample";
  match sample ?seed ctx k with
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun (bc, bp) (c, p) -> if better c bc then (c, p) else (bc, bp))
        first rest

let worst_of ?seed ctx k = pick ?seed ctx k (fun c bc -> c > bc)
let best_of ?seed ctx k = pick ?seed ctx k (fun c bc -> c < bc)
