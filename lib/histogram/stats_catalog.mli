(** Per-database label statistics: what the paper's estimator ([17],
    Wu/Patel/Jagadish EDBT'02) treats as precomputed.

    For each label (a {!Sjos_storage.Candidate.spec}) the catalog holds
    the candidate count, the positional histogram and the per-level slice
    histograms that parent-child estimates sum
    ({!Estimator.parent_child_by_level}), all at one grid resolution.
    Each part is filled on first use and then served from memory, so
    estimation costs one lookup per pattern node once a label has been
    seen.  Fills run under the catalog's mutex: concurrent domains build
    each part exactly once, and only the building query is charged its
    [Work.histogram_items].

    The number of labels is bounded by an LRU of {!capacity} entries:
    served patterns can carry unboundedly many distinct [[.='text']]
    labels.  An evicted label is recomputed on its next use, with
    identical results. *)

open Sjos_storage

type t

val capacity : int
(** Labels retained per catalog (256). *)

val create : grid:int -> Element_index.t -> t
(** An empty catalog over an index at a grid resolution. *)

val grid : t -> int

val count : t -> Candidate.spec -> int
(** Number of candidates of a label. *)

val histogram : t -> Candidate.spec -> Position_histogram.t
(** The label's positional histogram. *)

val level_slices : t -> Candidate.spec -> (int * Position_histogram.t) list
(** The label's {!Estimator.level_slices}. *)

val length : t -> int
(** Labels currently held (at most {!capacity}). *)

val selects : t -> int
(** Candidate selections ({!Sjos_storage.Candidate.select}) the catalog
    has run so far: at most one per part it builds, none for a lookup
    that finds the part in memory. *)
