(** The non-join physical operators: index scan and sort.  The executor
    runs the columnar batch flavor; the tuple-array flavor is the same
    operator, with the same accounting, on the boxed {!Tuple.t}
    surface. *)

open Sjos_xml
open Sjos_storage

val index_scan :
  work:Sjos_obs.Work.t -> width:int -> slot:int -> Node.t array -> Tuple.t array
(** Turn a document-ordered candidate array into single-binding tuples.
    Accounts one index item per candidate. *)

val index_scan_batch :
  work:Sjos_obs.Work.t -> width:int -> slot:int -> Cols.t -> Batch.t
(** The columnar equivalent: binds the candidate [ids] column directly
    into batch rows without materializing per-tuple arrays.  Same
    accounting as {!index_scan}. *)

val account_sort : work:Sjos_obs.Work.t -> int -> unit
(** Charge one sort of [n] items: [sorted_items += n] and the
    [n log2 n] term to [sort_cost] — the accounting every sort in the
    engine shares, so the cost model prices all of them alike. *)

val sort :
  ?budget:Sjos_guard.Budget.t ->
  work:Sjos_obs.Work.t ->
  doc:Document.t ->
  by:int ->
  Tuple.t array ->
  Tuple.t array
(** Stable sort of tuples by the document order of the node bound in slot
    [by]; accounts [n log2 n] sort cost.  This is the blocking operator:
    plans that contain it cannot pipeline.  The budget's deadline and
    cancellation flag are checked once before sorting (the sort itself is
    bounded by its already-materialized input).  Since the batch engine,
    keys are precomputed from the document's [starts] column and an index
    permutation is sorted with a monomorphic int comparator — no
    [Document.node] calls inside the comparator. *)

val sort_batch :
  ?budget:Sjos_guard.Budget.t ->
  work:Sjos_obs.Work.t ->
  doc:Document.t ->
  by:int ->
  Batch.t ->
  Batch.t
(** {!sort} over a columnar batch ({!Batch.sort}); same accounting. *)
