(** Per-query knobs, consolidated.

    This record is the single carrier of what may differ between two
    queries on one database; what a database fixes when it is built
    (cost factors, statistics grid, plan-cache size) is not here.  Build
    one with {!make} (or start from {!default}) and pass it to
    [Database.prepare] / [run], [Experiment.run_cell], [Workload.run] or
    [Xquery.run]. *)

type t = {
  algorithm : Sjos_core.Optimizer.algorithm;
      (** plan-selection algorithm; default [Dpp] *)
  engine : Sjos_core.Optimizer.engine;
      (** physical algebra: binary Stack-Tree plans (the default),
          the holistic TwigStack operator, or cost-based [Auto] *)
  use_cache : bool;  (** consult/populate the database's plan cache *)
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
}

val default : t
(** [Dpp], binary engine, caching on, unlimited budget, no fault
    injection, the default pool. *)

val make :
  ?algorithm:Sjos_core.Optimizer.algorithm ->
  ?engine:Sjos_core.Optimizer.engine ->
  ?use_cache:bool ->
  ?budget:Sjos_guard.Budget.t ->
  ?chaos:Sjos_guard.Chaos.t ->
  ?pool:Sjos_par.Pool.t ->
  unit ->
  t

val cold : t -> t
(** The same options with caching off — always a fresh optimizer search. *)

