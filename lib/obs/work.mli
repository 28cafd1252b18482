(** Deterministic work accounting — the system's one counter vocabulary:
    machine-independent counters whose totals are bit-identical for a
    given query workload regardless of wall-clock noise, domain count,
    or scheduling.

    One record type serves every scope that counts work:
    - a plan operator: the executor hands each operator (and each join
      kernel it calls) a fresh record, which becomes that operator's
      profile delta in {!Sjos_plan.Explain.measured};
    - a run or a search: {!Sjos_exec.Executor.run} carries the sum of
      its operators' records, and {!Sjos_core.Optimizer.result} the
      record its search context charged;
    - a domain: each domain owns one accumulator ({!current}).  It is
      charged only by the pager's page touches, by the statistics
      catalog's histogram builds, by the executor and the optimizer once
      a run or search completes (a search cut short by its budget
      charges nothing), and by the domain pool's barrier, which absorbs
      each task's delta.

    This is the currency the committed bench baseline gates on
    ([bench/baseline/], checked by [scripts/check_bench.py]).  Wall-clock
    seconds on a shared CI box swing by 2-3x; the number of containment
    comparisons a join performs, tuples it emits, candidate rows it
    scans, statuses the optimizer expands and pages the pager touches do
    not.  Every counter is {e partition-invariant}: running the same
    work sharded across N domains charges exactly the same totals as the
    serial loop (the kernels' drain accounting guarantees this for the
    sharded Stack-Tree merge, and {!Sjos_par.Pool.run} merges each
    task's delta into the caller at the barrier).

    Counters are always on: plain mutable fields, so charging work costs
    one field write and determinism can never depend on whether
    observability was enabled. *)

type t = {
  mutable comparisons : int;
      (** ancestor-stack entries examined per descendant visit in the
          Stack-Tree merge — identical for the columnar and legacy
          kernels, and across any sharding *)
  mutable tuples_emitted : int;  (** join output tuples *)
  mutable items_skipped : int;
      (** input items skip-ahead jumped over (columnar kernels only) *)
  mutable candidates_scanned : int;  (** candidate rows produced by scans *)
  mutable stack_ops : int;  (** Stack-Tree push+pop operations *)
  mutable io_items : int;  (** tuples buffered by Stack-Tree-Anc *)
  mutable sorted_items : int;  (** tuples passed through sorts *)
  mutable sort_cost : float;  (** accumulated [n log2 n] sort terms *)
  mutable expansions : int;  (** optimizer status expansions *)
  mutable plans_considered : int;
      (** alternative (partial) plans costed — Table 2's "# of plans" *)
  mutable page_touches : int;  (** buffer-pool page accesses ({!Pager}) *)
  mutable statuses_generated : int;  (** search statuses generated *)
  mutable pruned_bound : int;
      (** successors discarded by the Pruning Rule (cost >= best plan) *)
  mutable pruned_deadend : int;
      (** successors discarded by DPP's Lookahead Rule *)
  mutable pruned_left_deep : int;
      (** moves skipped by the DPAP-LD left-deep-only rule *)
  mutable histogram_items : int;
      (** candidate items summarized into positional histograms by the
          statistics catalog ([Sjos_histogram.Stats_catalog]): non-zero
          only for the query that first asks for a label's statistics *)
}

val current : unit -> t
(** The calling domain's accumulator.  Hot paths hoist this once and
    mutate fields directly. *)

val reset : unit -> unit
(** Zero the calling domain's accumulator. *)

val zero : unit -> t
val copy : t -> t

val snapshot : unit -> t
(** An immutable copy of the calling domain's current totals. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s counts into [dst]. *)

val absorb : t -> unit
(** Add the given counts into the calling domain's accumulator.  The
    domain pool calls this at its barrier with each task's delta. *)

val scoped : (unit -> 'a) -> t * ('a, exn) result
(** Run the thunk against a fresh accumulator, restore the previous one,
    and return the work the thunk charged — even when it raised.  The
    charged work is {e not} added to the outer accumulator; the caller
    decides where it goes ({!absorb}). *)

val fields : t -> (string * int) list
(** Every integer counter by name ([sort_cost] is the one float). *)

val equal : t -> t -> bool
val is_zero : t -> bool

val score : t -> int
(** The single work-unit figure: [comparisons],
    [tuples_emitted], [candidates_scanned], [stack_ops], [io_items],
    [sorted_items], [expansions] and [page_touches].  Skipping is avoided
    work; considered plans, the generated/pruned breakdown and
    [sort_cost] re-count work these already score; [histogram_items] is
    paid once per database, by whichever query first needs a label. *)

val core_score : t -> int
(** {!score} minus the IO counters ([io_items], [page_touches]) — the
    storage-independent slice.  The column-store differential tests
    require Mem and Disk runs to agree on this exactly, while the IO
    counters are what the backends are {e supposed} to change. *)

val equal_mod_io : t -> t -> bool
(** Field-wise equality ignoring [io_items] and [page_touches]. *)

val to_json : t -> Json.t
(** Every field plus the derived ["score"]. *)

val pp : t Fmt.t

(** {2 GC deltas}

    Allocation and collection counts ride along with work snapshots in
    bench reports.  They are process-global and deterministic only for
    serial runs of a deterministic program, so no gate reads them:
    like wall-clock, they are advisory data. *)

type gc_snapshot = {
  allocated_bytes : float;
  minor_collections : int;
  major_collections : int;
}

val gc_snapshot : unit -> gc_snapshot
val gc_to_json : gc_snapshot -> Json.t
