(** Structural-join cardinality estimation from positional histograms.

    Given the positional histograms of the two candidate sets, estimate the
    number of (ancestor, descendant) pairs satisfying containment by
    assuming positions are uniform within each grid cell: a descendant cell
    strictly right of the ancestor's start bucket and strictly below its end
    bucket is fully contained; cells sharing the start (resp. end) bucket
    contribute with probability 1/2; and same-cell (diagonal) pairs use the
    ancestor cell's width mass — a node of width [w] contains a uniformly
    placed narrower interval with probability [(w / bucket_span)^2]
    ({!Position_histogram.containment_mass}), which keeps flat documents
    (intervals much narrower than a bucket) from being grossly
    overestimated.
    Parent-child estimates refine the ancestor-descendant estimate with the
    level histograms. *)

val ancestor_descendant :
  anc:Position_histogram.t -> desc:Position_histogram.t -> float
(** Estimated number of pairs with [anc] containing [desc].  Requires both
    histograms built over the same position space with the same grid size
    (raises [Invalid_argument] otherwise). *)

val parent_child :
  anc:Position_histogram.t -> desc:Position_histogram.t -> float
(** Ancestor-descendant estimate scaled by the level-compatibility factor
    [P(level_d = level_a + 1 | containment-compatible levels)].  A coarse
    global correction — prefer {!parent_child_by_level} when the
    candidate sets' {!level_slices} are available. *)

val level_slices :
  grid:int ->
  max_pos:int ->
  Sjos_xml.Cols.t ->
  (int * Position_histogram.t) list
(** Partition a candidate set's columns by level and summarize each
    slice, in row order, into a positional histogram: [(level, histogram)]
    pairs, one per level present. *)

val parent_child_by_level :
  anc:(int * Position_histogram.t) list ->
  desc:(int * Position_histogram.t) list ->
  float
(** The level-sliced positional estimate over two {!level_slices}
    results: the sum of the ancestor-descendant estimates of the
    compatible slices [(anc at level l, desc at level l+1)], in the order
    of [anc].  Unlike the global factor, this captures the (common)
    correlation where descendants sit exactly one level below their
    ancestors, e.g. every employee having its own name child. *)

val selectivity :
  Sjos_xml.Axes.axis ->
  anc:Position_histogram.t ->
  desc:Position_histogram.t ->
  float
(** [pairs / (|anc| * |desc|)], clamped to [0, 1]; [0] when either side is
    empty. *)
