(** Backend-polymorphic column storage for candidate lists.

    Every query reads its per-tag candidate columns ({!Cols.t}) through
    this one API.  Two backends implement it:

    - {b Mem} — the element index's columns ({!Candidate.select}), no
      page accounting.  The default.
    - {b Disk} — an out-of-core store.  At creation the per-tag
      [(id, start, end, level)] columns are written to a binary page
      file ([columns.bin]: 8-byte little-endian ints, each column a
      page-aligned segment, zero-padded).  Reads go page-at-a-time
      through the LRU {!Pager}: a pool miss performs a physical
      [seek]+[read] of that page and decodes it into the tag's buffer
      frames.  Candidate sets are {e lazily materialized} — a query
      faults in only the tags, columns and page ranges it actually
      touches, which is what lets the skip-ahead join kernels turn
      skipped input runs into avoided page reads.  A predicate spec
      ([eNest[@aLevel='2']]) gets its own {e posting list}, appended
      to [columns.bin] on first use (see {!leaf}).

    Correctness is backend-independent by construction: the disk file is
    written from the same index the Mem backend serves, and decode is
    idempotent (a page re-read after eviction carries identical bytes),
    so outputs and all work counters except [page_touches]/IO statistics
    are bit-identical across backends — the differential property
    [test/test_store.ml] locks down.

    Thread-safety: the entire fault path (pager LRU state, read buffer,
    channel position, frame allocation) runs under one per-store mutex;
    decoded frame slots are only ever rewritten with the value they
    already hold.  Posting builds are serialized by a second mutex.
    Safe under any [SJOS_DOMAINS]. *)

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

val mem : config
(** The Mem backend (page/pool fields are carried but unused). *)

val disk : ?page_size:int -> ?pool_pages:int -> ?dir:string -> unit -> config
(** A Disk configuration; [page_size] defaults to 1024 items (8 KiB
    pages), [pool_pages] to 256 (a 2 MiB pool).  Raises
    [Invalid_argument] on non-positive sizes. *)

val backend_of_string : string -> (backend, string) result
val backend_name : backend -> string

val config_of_env : unit -> config
(** The process-wide default: [SJOS_STORAGE=mem|disk] selects the
    backend (mem when unset or unparsable); a disk store gets the
    default pool of {!disk}. *)

(** {1 Stores} *)

type t

exception Io_error of { path : string; reason : string }
(** Disk storage failed: the store directory or a file in it could not
    be created or written, or the column data file has gone missing
    since load, or is truncated/corrupt.  Raised at creation, from the
    fault path and from a posting build; {!Sjos_guard.Error.of_exn}
    maps it to [Corrupt_input], so CLI and server boundaries report it
    structurally (exit code 7) instead of leaking a [Sys_error]. *)

val create : ?config:config -> Element_index.t -> t
(** [create ~config index] — for [Disk], writes the column file from the
    index's candidate lists (load-time cost, proportional to document
    size).  The read channel is opened lazily on the first page fault;
    a data file that disappears or is damaged between load and first
    read raises {!Io_error} at fault time.  Raises {!Io_error} when the
    directory or its files cannot be written. *)

val index : t -> Element_index.t
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
(** Bytes of [columns.bin]: every tag's segments plus the posting lists
    built so far. *)

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
    full-scan baseline the lazy leaves are measured against.  The
    executor reads every Mem scan through {!select}, and a Disk scan
    only when its spec gets no {!leaf}: a wildcard, an unknown tag, or
    a predicate spec once the store holds {!posting_capacity} postings.
    It joins the result as a resident leaf
    ([Sjos_exec.Stack_tree.resident]), whose group columns alias these
    arrays: they are in document order, and no caller may mutate them. *)

val cols : t -> string -> Cols.t
(** One tag's complete candidate columns. *)

val select : t -> Candidate.spec -> Cols.t
(** Candidate columns for a spec.  On Disk, a predicate spec charges the
    full scan of its tag's segments (a wildcard scans every tag) and
    filters in memory; results are bit-identical to the Mem backend. *)

(** {1 Lazy leaves}

    A leaf is one scan's handle on one candidate list's on-disk columns:
    it faults pages in on demand and remembers what it has read.  Group
    metadata ([starts]/[ends]/[levels]) is faulted for groups the join
    examines, single [starts] probes for gallop skip-ahead, and [ids]
    only for rows that reach the output.  A frame slot is readable once
    an [ensure_*] call has covered it.

    {b Pinning.}  Metadata and probes each keep the page run they made
    resident last, and an item inside it costs no touch, as if the page
    were pinned while that cursor is on it.  The LRU therefore decides
    between runs, not between rows: [page_touches] and pool hits count
    page runs, and a miss is a run that starts on a page the pool no
    longer holds.  Ids pages are faulted at most once per leaf, whatever
    order the output reads them in.  A decoded slot stays readable after
    the pool evicts its page.  A leaf belongs to one join at a time: its
    cursors are not shared between domains. *)

type leaf

val posting_capacity : int
(** Posting lists one store holds at most (256). *)

val leaf : t -> Candidate.spec -> leaf option
(** A fresh leaf, nothing read yet.  [Some] only on Disk, for a spec
    with a known tag:

    - a pure-tag spec reads the tag's own segments;
    - a spec with an attribute and/or text predicate reads its posting
      list.  The first use builds it: it charges the full scan of the
      tag's segments (what {!select} charges), selects from the
      in-memory index, and writes the selection as four page-aligned
      segments at the pages the pager allocates next, each page at
      [page_id * page_bytes].  A column file shorter than the pages
      already allocated raises {!Io_error} before anything is written.
      Each spec's posting is built exactly once, even when domains race
      for it; later uses read only the posting's pages.

    [None] — callers fall back to {!select} — for Mem, a wildcard, an
    unknown tag, or a new predicate spec once the store holds
    {!posting_capacity} postings. *)

val leaf_cols : leaf -> Cols.t
(** The list's buffer frames, shared by every leaf over the list and
    allocated at its length, so {!Cols.length} needs no IO.  Slots are
    meaningful only after an [ensure_*] call covering them; do not
    mutate. *)

val ensure_probe : leaf -> int -> unit
(** Fault in [starts.(i)] — the gallop probe: one page touch unless
    item [i] lies in the page run last faulted for metadata or probes.
    An [i] outside the leaf faults nothing. *)

val ensure_meta : leaf -> int -> unit
(** Fault in [starts]/[ends]/[levels] for item [i]: one touch per column
    unless [i] lies in the metadata cursor's last page run.  An [i]
    outside the leaf faults nothing. *)

val ensure_ids : leaf -> int -> int -> unit
(** Fault in [ids] for item range [\[lo, hi)] (clamped to the leaf):
    each ids page not yet faulted by this leaf costs one touch. *)

val force : leaf -> unit
(** Fault in every column in full and mark every ids page as read:
    {!leaf_cols} is then fully resident. *)
