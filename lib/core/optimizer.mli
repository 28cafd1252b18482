(** Unified optimizer interface over the five algorithms of the paper,
    with search-work accounting and wall-clock optimization time. *)

open Sjos_pattern
open Sjos_plan

type algorithm =
  | Dp  (** exhaustive dynamic programming (§3.1) *)
  | Dpp  (** DP with pruning and lookahead (§3.2) *)
  | Dpp_no_lookahead  (** DPP′ of Table 2 — pruning without lookahead *)
  | Dpap_eb of int  (** expansion bound [Te] per level (§3.3.1) *)
  | Dpap_ld  (** left-deep plans only (§3.3.2) *)
  | Fp  (** fully-pipelined plans only (§3.4) *)
  | Big_dp of int
      (** the large-pattern tier ({!Bigdp}): subset DP over connected
          node-masks with the given per-layer width cap — exact on
          small patterns, sub-second at 30-40 nodes where the status
          searches are infeasible *)

val name : algorithm -> string
val all : Pattern.t -> algorithm list
(** The five algorithms evaluated in the paper, with DPAP-EB's [Te] set to
    the number of pattern edges (the §4.2 default). *)

val default_te : Pattern.t -> int
(** The paper's default tuning: [Te] = number of edges. *)

val big_pattern_threshold : int
(** Node count above which requests for an exact status search (DP,
    DPP, DPP′) are transparently re-tiered onto {!Big_dp} — the status
    space explodes combinatorially past the paper's query sizes. *)

val effective : Pattern.t -> algorithm -> algorithm
(** The algorithm {!optimize} will actually run for this pattern: the
    input, except that exact status searches on patterns wider than
    {!big_pattern_threshold} become [Big_dp Bigdp.default_width].  The
    returned {!result}'s [algorithm] field and the engine's plan-cache
    key both use this, never the requested tier. *)

type result = {
  algorithm : algorithm;
  plan : Plan.t;
  est_cost : float;  (** estimated cost of [plan] under the cost model *)
  opt_seconds : float;
      (** monotonic wall-clock time spent optimizing (never negative) *)
  work : Sjos_obs.Work.t;
      (** the search's work: [plans_considered] (Table 2's count),
          [expansions], [statuses_generated] and the [pruned_*]
          breakdown *)
  degraded_from : algorithm option;
      (** [Some a] when the budget fired during exact algorithm [a] and
          the plan came from the bounded fallback tier instead *)
}

val optimize :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  algorithm ->
  Pattern.t ->
  result
(** Run one algorithm over a pattern.  The returned plan is always valid
    for the pattern ({!Sjos_plan.Properties.validate}).  The search's
    [work] is added to the calling domain's {!Sjos_obs.Work.current}
    accumulator only once the search completes.  Raises
    {!Sjos_guard.Budget.Exhausted} when [budget] fires — prefer
    {!optimize_r}, which degrades gracefully. *)

val optimize_r :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  algorithm ->
  Pattern.t ->
  (result, Sjos_guard.Error.t) Stdlib.result
(** Like {!optimize}, but budget exhaustion becomes a value.  When the
    budget fires during an {e exact} search (DP, DPP, DPP′, BigDP) the
    query degrades to a tier with work bounded by construction — DPAP-EB
    with a capped [Te] at paper scale, a narrow BigDP beam past
    {!big_pattern_threshold} — and the result carries [degraded_from]; the
    [guard.degraded] registry counter and an [optimizer.degraded] trace
    event record the fallback.  Exhaustion in an already-heuristic tier
    returns [Error (Budget_exhausted _)]. *)

(** {1 Physical engine selection}

    The binary Stack-Tree plans and the holistic TwigStack operator are
    two physical algebras for the same logical pattern.  [Binary] is the
    paper's search space (the default everywhere — Table 2 and all
    existing behavior are unchanged); [Holistic] forces the single
    {!Plan.Holistic} plan; [Auto] runs the binary search and picks
    whichever side's estimated cost is lower (ties to binary). *)

type engine = Binary | Holistic | Auto

val engine_name : engine -> string
(** ["binary"], ["holistic"], ["auto"] — also the cache-key prefix. *)

val engine_of_string : string -> engine option
(** Case-insensitive inverse of {!engine_name}. *)

val holistic_result :
  ?factors:Sjos_cost.Cost_model.factors ->
  provider:Costing.provider ->
  algorithm ->
  Pattern.t ->
  result
(** The (unique) holistic plan for a pattern, costed under the same
    factors as the binary search; counts as one considered plan.  The
    [algorithm] tag is carried through for reporting only. *)

val optimize_e :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  engine:engine ->
  algorithm ->
  Pattern.t ->
  (result, Sjos_guard.Error.t) Stdlib.result
(** {!optimize_r} generalized over the physical engine.  Under [Auto]
    the result's [work] is the binary search's work plus one considered
    plan (the holistic alternative), whichever plan wins — exactly what
    the call charges to {!Sjos_obs.Work.current}.  A budget error from
    the binary search propagates even under [Auto]. *)

val pp_result : Pattern.t -> result Fmt.t

val result_to_json : Pattern.t -> result -> Sjos_obs.Json.t
(** Machine-readable counterpart of {!pp_result}: algorithm, estimated
    cost, search work, optimization seconds and the one-line plan. *)
