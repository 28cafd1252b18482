(** Per-query knobs, consolidated.

    Earlier revisions scattered [?algorithm], [?factors] and [?grid]
    across [Database], [Experiment], [Workload] and [Xquery] entry
    points; this record is the single carrier.  Build one with {!make} (or
    start from {!default}) and pass it to [Database.prepare] / [run],
    [Experiment.run_cell], [Workload.run] or [Xquery.run]. *)

type t = {
  algorithm : Sjos_core.Optimizer.algorithm;
      (** plan-selection algorithm; default [Dpp] *)
  engine : Sjos_core.Optimizer.engine;
      (** physical algebra: binary Stack-Tree plans (the default),
          the holistic TwigStack operator, or cost-based [Auto] *)
  use_cache : bool;  (** consult/populate the database's plan cache *)
  factors : Sjos_cost.Cost_model.factors option;
      (** override the database's cost factors for this query (disables
          plan caching, which is keyed on the database's own factors) *)
  grid : int option;
      (** override the database's histogram grid (also disables caching) *)
  budget : Sjos_guard.Budget.t;
      (** resource ceilings enforced across optimization and execution
          — including the tuple ceiling, [Budget.make ~max_tuples];
          default {!Sjos_guard.Budget.unlimited}, which costs nothing *)
  chaos : Sjos_guard.Chaos.t option;
      (** seeded fault injection into candidate streams and cardinality
          estimates — testing only; disables plan caching *)
  pool : Sjos_par.Pool.t option;
      (** domain pool the join kernels shard large joins over; [None]
          (the default) falls back to {!Sjos_par.Pool.get_default},
          which is serial unless [SJOS_DOMAINS] says otherwise.
          Results are bit-identical for every pool size. *)
  storage : Sjos_storage.Column_store.config option;
      (** column storage backend override for this query; [None] (the
          default) uses the database's own store.  A [Some] config is
          resolved by the database against a small per-config store
          memo, so repeated queries with the same override reuse one
          store (and one on-disk file set).  Outputs and all counters
          except page/IO accounting are backend-independent, so plan
          caching stays on. *)
}

val default : t
(** [Dpp], caching on, database-level factors and grid,
    unlimited budget, no fault injection. *)

val make :
  ?algorithm:Sjos_core.Optimizer.algorithm ->
  ?engine:Sjos_core.Optimizer.engine ->
  ?use_cache:bool ->
  ?factors:Sjos_cost.Cost_model.factors ->
  ?grid:int ->
  ?budget:Sjos_guard.Budget.t ->
  ?chaos:Sjos_guard.Chaos.t ->
  ?pool:Sjos_par.Pool.t ->
  ?storage:Sjos_storage.Column_store.config ->
  unit ->
  t

val cold : t -> t
(** The same options with caching off — always a fresh optimizer search. *)

