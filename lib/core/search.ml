open Sjos_pattern
open Sjos_cost
open Sjos_plan
open Sjos_guard
module Work = Sjos_obs.Work

type ctx = {
  pat : Pattern.t;
  factors : Cost_model.factors;
  provider : Costing.provider;
  edges : Pattern.edge array;
  work : Work.t;
  budget : Budget.t;
}

let make_ctx ?(factors = Cost_model.default) ?(budget = Budget.unlimited)
    ~provider pat =
  {
    pat;
    factors;
    provider;
    edges = Array.of_list (Pattern.edges pat);
    work = Work.zero ();
    budget;
  }

let check_budget ctx =
  Budget.check_search ctx.budget ~during:"optimize"
    ~expanded:ctx.work.Work.expansions

let remaining_edges ctx (s : Status.t) =
  let acc = ref [] in
  for i = Array.length ctx.edges - 1 downto 0 do
    if s.Status.joined land (1 lsl i) = 0 then acc := (i, ctx.edges.(i)) :: !acc
  done;
  !acc

(* The hot loops below resolve node→cluster through a dense array built
   once per status ({!Status.cluster_map}) instead of a [List.find] per
   lookup — the list scan is quadratic noise once patterns reach the
   30-node tier. *)
let joinable_m (cmap : Status.cluster Array.t) (e : Pattern.edge) =
  let cu = cmap.(e.Pattern.anc) in
  let cv = cmap.(e.Pattern.desc) in
  cu.Status.mask <> cv.Status.mask
  && Plan.ordered_by cu.Status.plan = e.Pattern.anc
  && Plan.ordered_by cv.Status.plan = e.Pattern.desc

let is_deadend ctx (s : Status.t) =
  (not (Status.is_final s))
  &&
  let cmap = Status.cluster_map ~n:(Pattern.node_count ctx.pat) s in
  not (List.exists (fun (_, e) -> joinable_m cmap e) (remaining_edges ctx s))

let useful_sort_targets ctx ~joined ~merged_mask =
  let useful = ref [] in
  Array.iteri
    (fun i (e : Pattern.edge) ->
      if joined land (1 lsl i) = 0 then begin
        if merged_mask land (1 lsl e.Pattern.anc) <> 0 then
          useful := e.Pattern.anc :: !useful;
        if merged_mask land (1 lsl e.Pattern.desc) <> 0 then
          useful := e.Pattern.desc :: !useful
      end)
    ctx.edges;
  List.sort_uniq compare !useful

let start ctx =
  Status.start ~factors:ctx.factors ~provider:ctx.provider ctx.pat

(* Replace the two input clusters by the merged one, keeping the list
   sorted by mask. *)
let merge_clusters (s : Status.t) (cu : Status.cluster) (cv : Status.cluster)
    merged =
  let rest =
    List.filter
      (fun (c : Status.cluster) ->
        c.Status.mask <> cu.Status.mask && c.Status.mask <> cv.Status.mask)
      s.Status.clusters
  in
  List.sort
    (fun (a : Status.cluster) b -> compare a.Status.mask b.Status.mask)
    (merged :: rest)

let step (s : Status.t) ~edge_idx (cu : Status.cluster) (cv : Status.cluster)
    ~card ~plan ~cost =
  {
    Status.clusters =
      merge_clusters s cu cv
        { Status.mask = cu.Status.mask lor cv.Status.mask; plan; card };
    joined = s.Status.joined lor (1 lsl edge_idx);
    cost;
  }

let expand ?(left_deep = false) ?(lookahead = false) ?(cost_bound = infinity)
    ctx (s : Status.t) =
  (* Budget check before the counter moves: an aborted search has done
     exactly the budgeted number of expansions, and an unlimited budget is
     a single physical-equality test — search order is never perturbed. *)
  check_budget ctx;
  let w = ctx.work in
  w.Work.expansions <- w.Work.expansions + 1;
  let cmap = Status.cluster_map ~n:(Pattern.node_count ctx.pat) s in
  let successors = ref [] in
  let emit status =
    (* Pruning Rule, applied at generation time: a successor whose Cost
       already meets the best complete plan is dead and never considered. *)
    if status.Status.cost < cost_bound then begin
      if lookahead && is_deadend ctx status then
        w.Work.pruned_deadend <- w.Work.pruned_deadend + 1
      else begin
        w.Work.plans_considered <- w.Work.plans_considered + 1;
        w.Work.statuses_generated <- w.Work.statuses_generated + 1;
        successors := status :: !successors
      end
    end
    else w.Work.pruned_bound <- w.Work.pruned_bound + 1
  in
  List.iter
    (fun (edge_idx, (e : Pattern.edge)) ->
      if joinable_m cmap e then begin
        let cu = cmap.(e.Pattern.anc) in
        let cv = cmap.(e.Pattern.desc) in
        (* Left-deep rule: after the move, at most one cluster (the growing
           node) may hold several pattern nodes — so the merge must absorb
           every existing composite cluster. *)
        let stays_left_deep =
          let multi_in_inputs =
            (if Status.popcount cu.Status.mask > 1 then 1 else 0)
            + if Status.popcount cv.Status.mask > 1 then 1 else 0
          in
          multi_in_inputs <= 1
          && Status.multi_cluster_count s = multi_in_inputs
        in
        if left_deep && not stays_left_deep then
          w.Work.pruned_left_deep <- w.Work.pruned_left_deep + 1
        else begin
          let merged_mask = cu.Status.mask lor cv.Status.mask in
          let merged_card = ctx.provider.Costing.cluster_card merged_mask in
          let joined = s.Status.joined lor (1 lsl edge_idx) in
          let will_be_final = merged_mask = (1 lsl Pattern.node_count ctx.pat) - 1 in
          let variants algo =
            let join_cost =
              Costing.join_cost ctx.factors algo ~anc:cu.Status.card
                ~output:merged_card
            in
            let join_plan =
              Plan.join ~anc_side:cu.Status.plan ~desc_side:cv.Status.plan
                ~edge:e ~algo
            in
            let mk plan extra =
              emit
                (step s ~edge_idx cu cv ~card:merged_card ~plan
                   ~cost:(s.Status.cost +. join_cost +. extra))
            in
            mk join_plan 0.0;
            let natural_order = Plan.ordered_by join_plan in
            (* Output re-sorts are only worthwhile toward orders a later
               join can still consume; a final status needs none (the
               order-by sort, if any, is added by [finalize]). *)
            if not will_be_final then
              List.iter
                (fun target ->
                  if target <> natural_order then
                    mk
                      (Plan.sort join_plan ~by:target)
                      (Cost_model.sort ctx.factors merged_card))
                (useful_sort_targets ctx ~joined ~merged_mask)
          in
          variants Plan.Stack_tree_anc;
          variants Plan.Stack_tree_desc
        end
      end)
    (remaining_edges ctx s);
  !successors

let sort_for_order_by ctx ~card (cost, plan) =
  match Pattern.order_by ctx.pat with
  | Some r when Plan.ordered_by plan <> r ->
      (cost +. Cost_model.sort ctx.factors card, Plan.sort plan ~by:r)
  | _ -> (cost, plan)

let finalize ctx (s : Status.t) =
  match s.Status.clusters with
  | [ c ] ->
      sort_for_order_by ctx ~card:c.Status.card (s.Status.cost, c.Status.plan)
  | _ -> invalid_arg "Search.finalize: status is not final"

let ub_cost ctx (s : Status.t) =
  let cmap = Status.cluster_map ~n:(Pattern.node_count ctx.pat) s in
  List.fold_left
    (fun acc (_, (e : Pattern.edge)) ->
      let cu = cmap.(e.Pattern.anc) in
      let cv = cmap.(e.Pattern.desc) in
      if cu.Status.mask = cv.Status.mask then acc
      else
        let merged = cu.Status.mask lor cv.Status.mask in
        let out = ctx.provider.Costing.cluster_card merged in
        acc
        +. Costing.join_cost ctx.factors Plan.Stack_tree_anc
             ~anc:cu.Status.card ~output:out
        +. Cost_model.sort ctx.factors out)
    0.0 (remaining_edges ctx s)
