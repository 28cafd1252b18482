(** A paged storage manager with an LRU buffer pool — the role SHORE
    plays under Timber in the paper's experimental setup (16 MB buffer
    pool, §4).

    Candidate lists and materialized intermediate results live in
    fixed-size pages; every access goes through the pool and is accounted
    as a hit or a miss (a miss evicts the least-recently-used resident
    page).  The executor's abstract [f_IO] factor is grounded here: one
    miss = one physical page read.

    The pager itself only decides {e which} accesses are misses; it is
    deliberately independent of where the bytes live.  {!Column_store}
    supplies the bytes: its [Disk] backend preads a page from its column
    file on every miss reported by {!fault_range}.  The older simulation
    entry points ({!scan}, {!scan_range}) remain for access-
    pattern experiments that don't need data.

    Every access charges one [Work.page_touches] unit.  The batch entry
    points fetch the calling domain's accumulator once per call, not once
    per page, so per-page accounting costs one field increment. *)

type t

val create : ?page_size:int -> pool_pages:int -> unit -> t
(** [create ~pool_pages ()] — a pool holding [pool_pages] resident pages of
    [page_size] items each (default 256 items/page).
    Raises [Invalid_argument] for non-positive sizes. *)

val page_size : t -> int

type segment
(** A contiguous on-disk area holding a known number of items. *)

val allocate : t -> items:int -> segment
(** Allocate a segment (e.g. one tag's candidate list, or a materialized
    intermediate result). *)

val segment_pages : t -> segment -> int

val segment_base : segment -> int
(** The segment's first (absolute) page id.  Page ids are allocated
    sequentially, so a store laying segments out in allocation order can
    derive a page's file offset as [page_id * page_byte_size]. *)

val segment_items : segment -> int

val scan : t -> segment -> unit
(** Touch all pages of a segment in order — a full sequential scan. *)

val scan_range : t -> segment -> first_item:int -> n_items:int -> unit
(** Touch the pages covering an item range: {!fault_range} with no miss
    hook.  Raises [Invalid_argument] if the range exceeds the segment. *)

val fault_range :
  t -> segment -> first_item:int -> n_items:int -> on_miss:(int -> unit) -> unit
(** Touch the pages covering an item range, calling [on_miss page_id]
    for every touched page that was not resident — the hook where a real backend performs
    the physical read.  Misses are reported in LRU-decision order.
    Raises [Invalid_argument] if the range exceeds the segment. *)

type stats = { accesses : int; hits : int; misses : int; evictions : int }

val stats : t -> stats
val reset_stats : t -> unit

val stats_to_json : stats -> Sjos_obs.Json.t
(** The four counters as one JSON object — the ["io"] object of the
    CLI's JSON reports and of the metrics snapshot. *)

val reset : t -> unit
(** {!reset_stats} plus dropping every resident page: the pool becomes
    cold (the next access to any page is a miss) while keeping its
    segment allocations.  Benches use this to re-measure miss counts
    without rebuilding a store. *)

val hit_ratio : t -> float
(** [hits / accesses]; [0.] before any access. *)

val resident_pages : t -> int
