(** Plan interpretation: run a physical plan against an indexed document
    and collect both the matches and the operation accounting.

    One columnar interpreter serves both physical algebras — binary
    Stack-Tree plans (index scans, key-column permutation sorts and the
    skip-ahead {!Stack_tree} joins) and the holistic {!Twig_stack}
    operator.  Rows flow between operators as {!Stack_tree.input}s. *)

open Sjos_storage
open Sjos_pattern
open Sjos_plan

type run = {
  tuples : Tuple.t array;  (** the pattern matches, one tuple per match *)
  work : Sjos_obs.Work.t;
      (** the run's operation counts: the sum of its operators' profile
          work.  Page touches are charged by the pager to the domain
          accumulator, not here. *)
  cost_units : float;
      (** [work] priced by {!Sjos_cost.Cost_model.cost_units} *)
  seconds : float;  (** monotonic wall-clock execution time *)
  profile : Explain.measured;
      (** per-operator actual rows, work and self time — feed to
          {!Sjos_plan.Explain.analyze} for EXPLAIN ANALYZE *)
}

val execute :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  ?max_tuples:int ->
  ?fetch:(Candidate.spec -> Sjos_xml.Node.t array) ->
  ?pool:Sjos_par.Pool.t ->
  ?store:Column_store.t ->
  Element_index.t ->
  Pattern.t ->
  Plan.t ->
  run
(** Execute a plan under a resource budget.

    [pool] supplies the domain pool the columnar join kernels shard
    large joins over (see {!Stack_tree.join_batch}); it defaults to
    {!Sjos_par.Pool.get_default}, whose size is read from the
    [SJOS_DOMAINS] environment variable (1 when unset — fully serial).
    Results are bit-identical for every pool size.

    The run's [work] is added to the calling domain's
    {!Sjos_obs.Work.current} accumulator once, when the run completes;
    a run that raises charges nothing there.

    Failure modes are structured: an invalid plan raises
    [Sjos_guard.Error.Error (Invalid_plan _)]; exhausting the budget —
    the deadline, the cancellation flag, or an operator output exceeding
    the tuple ceiling — raises {!Sjos_guard.Budget.Exhausted} with the
    partial tuple count preserved
    ([Tuples_materialized { limit; count }]).  [max_tuples] is merged
    into [budget] (minimum wins); both default to unlimited, which costs
    nothing on the hot path.

    [store] supplies the column storage backend candidate streams are
    read through (defaulting to a Mem store over [index], which
    reproduces the pre-{!Column_store} behavior exactly).  With a Disk
    store, the columnar engine keeps pure-tag leaf scans lazy into the
    join kernels — only the pages the skip-ahead merge examines are
    read — while predicate scans charge a full scan of their tag's
    segments.  Outputs and all counters except page/IO accounting are
    backend-independent.  Raises [Invalid_argument] if the store was
    built over a different index.

    [fetch] overrides where candidate streams come from (fault
    injection, plan hints, alternative storage tiers).  Externally
    fetched streams are verified against the document's position columns:
    an out-of-order stream, or a node id the document does not know,
    raises [Error (Corrupt_input _)] instead of silently joining
    garbage. *)

val count_matches :
  ?factors:Sjos_cost.Cost_model.factors ->
  Element_index.t ->
  Pattern.t ->
  Plan.t ->
  int
(** Convenience: execute and return the number of matches. *)
