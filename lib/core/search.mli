(** Shared search machinery: moves, expansion, deadend lookahead, final
    sorting, and the search work every algorithm reports.

    A move (Definition 4) evaluates one remaining pattern edge [(u, v)].
    Stack-Tree joins consume inputs sorted by the join nodes, so the move
    requires the cluster containing [u] to be ordered by [u] and the
    cluster containing [v] by [v].  The move picks the join algorithm
    (Stack-Tree-Anc → output ordered by [u]; Stack-Tree-Desc → by [v]) and
    may re-sort the output by any other node of the merged cluster that a
    remaining edge still needs. *)

open Sjos_pattern
open Sjos_plan

type ctx = {
  pat : Pattern.t;
  factors : Sjos_cost.Cost_model.factors;
  provider : Costing.provider;
  edges : Pattern.edge array;
  work : Sjos_obs.Work.t;
      (** this search's work, always on: [expansions],
          [plans_considered], [statuses_generated] and the [pruned_*]
          breakdown *)
  budget : Sjos_guard.Budget.t;
      (** resource ceilings for this search; checked before every
          expansion and never perturbing search order *)
}

val make_ctx :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  Pattern.t ->
  ctx

val check_budget : ctx -> unit
(** Poll the context's budget against its expansion count; raises
    {!Sjos_guard.Budget.Exhausted} when a ceiling fired.  Called by
    {!expand}; algorithms with their own inner loops (FP's permutation
    scan) call it directly. *)

val start : ctx -> Status.t
(** The start status of the context's pattern under its factors and
    provider ({!Status.start}). *)

val remaining_edges : ctx -> Status.t -> (int * Pattern.edge) list
(** Indexed pattern edges not yet evaluated by the status. *)

val is_deadend : ctx -> Status.t -> bool
(** Definition 6: non-final and no remaining edge is joinable. *)

val step :
  Status.t ->
  edge_idx:int ->
  Status.cluster ->
  Status.cluster ->
  card:float ->
  plan:Plan.t ->
  cost:float ->
  Status.t
(** [step s ~edge_idx cu cv ~card ~plan ~cost] — the successor of [s]
    after a move over edge [edge_idx] that merges clusters [cu] and [cv]
    into one cluster of [card] items computed by [plan] (ordered by
    {!Plan.ordered_by} [plan]), at accumulated cost [cost].  The one way
    every search and random walk builds a successor status. *)

val expand :
  ?left_deep:bool ->
  ?lookahead:bool ->
  ?cost_bound:float ->
  ctx ->
  Status.t ->
  Status.t list
(** All successor statuses reachable by one move.  Every returned status
    bumps [work.plans_considered] and [work.statuses_generated]; the call
    itself bumps [work.expansions].  With [~left_deep:true], successors
    with two composite clusters are not generated (the DPAP-LD rule;
    skipped moves bump [work.pruned_left_deep]).  With [~lookahead:true],
    deadend successors are detected one step ahead and never generated
    nor counted (DPP's Lookahead Rule; bumps [work.pruned_deadend]).
    Successors whose accumulated cost reaches [cost_bound] (the cost of
    the best complete plan found so far) are dead on arrival and are not
    generated either (the Pruning Rule; bumps [work.pruned_bound]). *)

val sort_for_order_by : ctx -> card:float -> float * Plan.t -> float * Plan.t
(** [sort_for_order_by ctx ~card (cost, plan)] — a complete plan of
    [card] result items and its cost, with the result sort the pattern's
    order-by node requires added (and priced) when [plan]'s output is
    ordered by another node. *)

val finalize : ctx -> Status.t -> float * Plan.t
(** Cost and plan of a final status, through {!sort_for_order_by}.
    Raises [Invalid_argument] on a non-final status. *)

val ub_cost : ctx -> Status.t -> float
(** DPP's [ubCost]: a quick upper-bound style estimate of the cost needed
    to finish the status — for every remaining edge, a Stack-Tree-Anc join
    at current cluster cardinalities plus a sort of its output.  Used only
    to order expansion; pruning relies on [cost] alone, so optimality does
    not depend on this being a true upper bound. *)
