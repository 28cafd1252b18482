(** The engine façade: an in-memory XML database that ties together
    storage, statistics, optimization and execution — the role Timber plays
    in the paper.

    The primary query interface is {e prepared queries}: {!prepare}
    numbers the pattern canonically and fingerprints it
    ({!Sjos_pattern.Fingerprint}), picks a plan —
    consulting the database's LRU plan cache first, so repeated structures
    skip the optimizer search entirely — and returns a handle off which
    {!exec}, {!explain_prepared} and {!analyze_prepared} run.  The cache
    holds each chosen plan, in canonical numbering, with its estimated
    cost; a hit maps it back to the caller's numbering and re-validates
    it.

    {[
      let db = Database.of_document doc in
      let pat = Sjos_pattern.Parse.pattern "manager(//employee(/name))" in
      let p = Database.prepare db pat in
      let run = Database.exec p in          (* cold: optimizer searched *)
      let run' = Database.exec p in         (* warm: plan reused *)
      Fmt.pr "%d matches (fingerprint %s)@."
        (Array.length run'.exec.tuples)
        (Database.prepared_fingerprint p)
    ]}

    Per-query knobs travel in a {!Query_opts.t}: for example
    [prepare ~opts:(Query_opts.make ~use_cache:false ())] runs a fresh
    search whose [work] is the true search cost (Table 2 relies on
    this), and {!prepared_result} returns it without executing. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_core
open Sjos_exec

type t

val of_document : ?storage:Column_store.config -> Document.t -> t
(** Index a document and prepare it for querying.  A database's
    configuration is settled here and never changes: plans are priced
    under {!Sjos_cost.Cost_model.default}, its own statistics use a
    positional-histogram grid of 32, and the plan cache holds 256
    entries.

    [storage] selects the column storage backend queries read candidate
    streams through, defaulting to
    {!Sjos_storage.Column_store.config_of_env} ([SJOS_STORAGE=mem|disk],
    mem when unset).  A [Disk] store writes the per-tag column file at
    this point — a load-time cost proportional to document size. *)

val of_string : ?storage:Column_store.config -> string -> t
(** Parse XML text and index it. *)

val load_file : ?storage:Column_store.config -> string -> t

val document : t -> Document.t
val index : t -> Element_index.t

val store : t -> Column_store.t
(** The database's column store — inspect {!Column_store.io_stats} after
    Disk-backed runs, or {!Column_store.reset_io} to cold-start the
    pool. *)

val dispose : t -> unit
(** Dispose the database's store (deleting Disk files).  The database
    must not be queried afterwards under a Disk configuration; Mem
    queries are unaffected.  Idempotent. *)

val stats : t -> Stats.t
(** Document statistics, computed afresh on each call by a walk over
    every node.  No query reads them: the optimizer's estimates come
    from the label statistics {!catalog}. *)

val warm : t -> unit
(** Pre-build the document's position columns, the one lazily built
    read-side structure (the per-tag candidate columns are built with the
    database), so queries fanned out across domains afterwards touch
    only read paths.  Idempotent;
    purely a scheduling hint — parallel queries are correct without it.
    The label statistics {!catalog} is not pre-built: it fills on each
    label's first use, under its own mutex. *)

val factors : t -> Sjos_cost.Cost_model.factors
(** The cost factors every plan of the database is priced under. *)

val catalog : t -> Sjos_histogram.Stats_catalog.t
(** The label statistics queries share: candidate counts and positional
    histograms at the database's grid, filled on first use of each label.
    Queries with chaos build private statistics and leave it
    untouched. *)

type cached_plan = {
  plan : Sjos_plan.Plan.t;  (** in the pattern's canonical numbering *)
  est_cost : float;  (** the optimizer's estimated cost of [plan] *)
}

val plan_cache : t -> cached_plan Sjos_cache.Plan_cache.t
(** The database's plan cache, for stats inspection. *)

val provider : t -> Pattern.t -> Sjos_plan.Costing.provider
(** Histogram-backed cardinality provider for a pattern, reading the
    database's {!catalog}.  Creating it touches no candidates; edge and
    cluster estimates are memoized for the lifetime of the result. *)

(** {1 Prepared queries} *)

val parse_pattern : xpath:bool -> string -> Pattern.t
(** Read a query pattern from text: the native pattern syntax, or an
    XPath expression when [xpath].  Raises {!Sjos_guard.Error.Error}
    [(Parse_error { input; message })] on malformed text. *)

type prepared
(** A pattern bound to a database with its options, fingerprint, memoized
    cardinality provider and chosen plan.  Re-executing a prepared query
    costs no optimizer search.  The handle is immutable. *)

val prepare : ?opts:Query_opts.t -> t -> Pattern.t -> prepared
(** Number the pattern canonically and fingerprint it in one walk
    ({!Sjos_pattern.Fingerprint.canonical}), then optimize (through the
    plan cache when [opts.use_cache], the default).  [opts] defaults to
    {!Query_opts.default}.

    When [opts.chaos] is set, the query does not draw faults from the
    caller's instance directly: an independent child stream is derived
    from it, keyed on the query fingerprint
    ({!Sjos_guard.Chaos.derive}), so the faults a query sees depend only
    on (seed, query) — replayable regardless of query order or of the
    domain scheduling of a parallel workload.  Injection totals still
    accumulate on the caller's instance. *)

type query_run = { opt : Optimizer.result; exec : Executor.run }

val exec : prepared -> query_run
(** Execute the prepared plan.  [opt] is the resolution that produced the
    plan: a cache hit reports zero search work and only the lookup time
    as [opt_seconds].

    Budget exhaustion during execution raises
    {!Sjos_guard.Budget.Exhausted}, preserving the partial tuple count in
    [Tuples_materialized { limit; count }]; wrapped in
    {!Sjos_guard.Error.protect} it becomes
    [Budget_exhausted { resource = Tuples_materialized _; _ }]. *)

val explain_prepared : prepared -> string
(** The prepared plan, rendered with estimated cardinalities and costs. *)

type analysis = {
  opt : Optimizer.result;
  exec : Executor.run;
  rows : Sjos_plan.Explain.analysis_row list;
      (** one row per plan operator, pre-order *)
}

val analyze_prepared : prepared -> analysis
(** EXPLAIN ANALYZE off the handle: execute and compare the optimizer's
    estimates against measured per-operator cardinalities, cost units and
    wall time.  Render with {!Sjos_plan.Explain.analyze_to_string} or
    {!Sjos_plan.Explain.analysis_to_json}. *)

val prepared_result : prepared -> Optimizer.result

val prepared_fingerprint : prepared -> string
(** Structural fingerprint of the pattern — the cache-key component. *)

val prepared_from_cache : prepared -> bool
(** Did {!prepare} find the plan in the cache? *)

val run : ?opts:Query_opts.t -> t -> Pattern.t -> query_run
(** [prepare] + [exec] in one call — the normal one-shot entry point.
    With a budget in [opts], an exact optimizer search that blows its
    budget transparently degrades to DPAP-EB (see
    {!Sjos_core.Optimizer.optimize_r}); check [(run.opt).degraded_from]
    to detect it.

    Failures raise: {!Sjos_guard.Error.Error} for parse/knob problems,
    invalid plans and corruption detected at a trust boundary,
    {!Sjos_guard.Budget.Exhausted} for budget exhaustion that no
    degradation tier absorbed.  Services wrap the call in
    {!Sjos_guard.Error.protect} to get every failure as a
    {!Sjos_guard.Error.t} value. *)

val execute_plan :
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  t ->
  Pattern.t ->
  Sjos_plan.Plan.t ->
  Executor.run
(** Execute an externally supplied plan ("plan hints"); bypasses the
    optimizer and the cache. *)
