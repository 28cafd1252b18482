(** Backend-polymorphic column storage for candidate lists.

    Every query reads its per-tag candidate columns ({!Cols.t}) through
    this one API.  Two backends implement it:

    - {b Mem} — today's behavior: the element index's cached flat
      arrays, no page accounting.  The default.
    - {b Disk} — an out-of-core store.  At creation the per-tag
      [(id, start, end, level)] columns are written to a binary page
      file ([columns.bin]: 8-byte little-endian ints, each column a
      page-aligned segment, zero-padded).  Reads go page-at-a-time
      through the LRU {!Pager}: a pool miss performs a physical
      [seek]+[read] of that page and decodes it into the tag's buffer
      frames.  Candidate sets are {e lazily materialized} — a query
      faults in only the tags, columns and page ranges it actually
      touches, which is what lets the skip-ahead join kernels turn
      skipped input runs into avoided page reads.

    Correctness is backend-independent by construction: the disk file is
    written from the same index the Mem backend serves, and decode is
    idempotent (a page re-read after eviction carries identical bytes),
    so outputs and all work counters except [page_touches]/IO statistics
    are bit-identical across backends — the differential property
    [test/test_store.ml] locks down.

    Thread-safety: the entire fault path (pager LRU state, read buffer,
    channel position, frame allocation) runs under one per-store mutex;
    decoded frame slots are only ever rewritten with the value they
    already hold.  Safe under any [SJOS_DOMAINS]. *)

open Sjos_xml

(** {1 Configuration} *)

type backend = Mem | Disk

type config = {
  backend : backend;
  page_size : int;  (** items (8-byte ints) per page *)
  pool_pages : int;  (** resident pages in the LRU pool *)
  dir : string option;
      (** where the Disk files live; [None] allocates a fresh temp
          directory that is removed at process exit *)
}

val default_page_size : int
(** 1024 items = 8 KiB pages. *)

val default_pool_pages : int
(** 256 pages = 2 MiB pool. *)

val mem : config
(** The Mem backend (page/pool fields are carried but unused). *)

val disk : ?page_size:int -> ?pool_pages:int -> ?dir:string -> unit -> config
(** A Disk configuration.  Raises [Invalid_argument] on non-positive
    sizes. *)

val backend_of_string : string -> (backend, string) result
val backend_name : backend -> string

val config_of_env : unit -> config
(** The process-wide default: [SJOS_STORAGE=mem|disk] selects the
    backend (mem when unset or unparsable), [SJOS_PAGE_SIZE] and
    [SJOS_POOL_PAGES] tune the pool. *)

val config_equal : config -> config -> bool
val config_to_json : config -> Sjos_obs.Json.t
val pp_config : config Fmt.t

(** {1 Stores} *)

type t

exception Io_error of { path : string; reason : string }
(** A physical read of the column data file failed: the file has gone
    missing since load, or is truncated/corrupt.  Raised from the fault
    path; {!Sjos_guard.Error.of_exn} maps it to [Corrupt_input], so CLI
    and server boundaries report it structurally (exit code 7) instead
    of leaking a [Sys_error]. *)

val create : ?config:config -> Element_index.t -> t
(** [create ~config index] — for [Disk], writes the column file from the
    index's candidate lists (load-time cost, proportional to document
    size).  The read channel is opened lazily on the first page fault;
    a data file that disappears or is damaged between load and first
    read raises {!Io_error} at fault time. *)

val index : t -> Element_index.t
val document : t -> Document.t
val config : t -> config
val is_disk : t -> bool

val io_stats : t -> Pager.stats option
(** The buffer pool's access/hit/miss/eviction counters ([None] for
    Mem).  Misses are physical page reads. *)

val reset_io : t -> unit
(** Cold-start the pool ({!Pager.reset}): statistics zeroed, every page
    non-resident.  No-op for Mem. *)

val data_file : t -> string option
val pool_bytes : t -> int option
val total_column_bytes : t -> int option

val dispose : t -> unit
(** Close and delete the Disk files (no-op for Mem).  Idempotent:
    disposing an already disposed store does nothing.  Any later fault
    raises [Invalid_argument].  Stores in auto-created temp directories
    are also disposed at process exit, through
    [Sjos_obs.Lifecycle] stage [`Dispose] — deterministically before
    the default domain pool's [`Shutdown] teardown. *)

(** {1 Materializing reads}

    These return fully resident columns.  On Disk they charge the full
    sequential scan of every column segment they cover — this is the
    full-scan baseline the lazy leaves are measured against. *)

val cols : t -> string -> Cols.t
(** One tag's complete candidate columns. *)

val select : t -> Candidate.spec -> Cols.t
(** Candidate columns for a spec.  On Disk, a predicate spec charges the
    full scan of its tag's segments (a wildcard scans every tag) and
    filters in memory; results are bit-identical to the Mem backend. *)

(** {1 Lazy leaves}

    A leaf is a handle on one tag's on-disk columns that faults pages in
    on demand.  The join kernels drive it range-by-range: group metadata
    ([starts]/[ends]/[levels]) for groups actually examined, single
    [starts] probes for gallop skip-ahead, and [ids] only for rows that
    reach the output.  Reading a frame slot is only valid after an
    [ensure_*] covering it. *)

type leaf

val leaf : t -> Candidate.spec -> leaf option
(** [Some] only on Disk for a pure-tag spec (no attribute/text
    predicate) of a known tag; callers fall back to {!select}
    otherwise. *)

val leaf_length : leaf -> int
(** Number of candidate rows — answered from the catalog, no IO. *)

val leaf_cols : leaf -> Cols.t
(** The tag's buffer frames.  Slots are meaningful only after an
    [ensure_*] call covering them; do not mutate. *)

val leaf_tag : leaf -> string

val ensure_probe : leaf -> int -> unit
(** Fault in [starts.(i)] — one page touch; the gallop probe. *)

val ensure_meta : leaf -> int -> int -> unit
(** Fault in [starts]/[ends]/[levels] for item range [\[lo, hi)]
    (clamped to the leaf). *)

val ensure_ids : leaf -> int -> int -> unit
(** Fault in [ids] for item range [\[lo, hi)] (clamped). *)

val force : leaf -> Cols.t
(** Fault in everything; the result is fully resident. *)
