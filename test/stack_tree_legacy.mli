(** The original list-based Stack-Tree kernels, kept verbatim as a
    test-only reference for the columnar kernels.

    {!Sjos_exec.Stack_tree} reimplements both variants over flat columns
    with skip-ahead; this module preserves the group-list implementation
    as the independent derivation of the paper's comparison and stack
    counters.  The differential tests ([test_batch.ml], [test_work.ml])
    assert, on randomized inputs, that the two produce identical tuple
    arrays (same tuples, same order) and identical join/IO accounting.
    Apart from {!Sjos_obs.Work.t.items_skipped} (always [0] here), every
    counter must match the columnar kernels exactly.

    No execution path calls this module; it exists for the tests. *)

open Sjos_xml
open Sjos_plan
open Sjos_exec

val join :
  ?budget:Sjos_guard.Budget.t ->
  work:Sjos_obs.Work.t ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:Tuple.t array * int ->
  desc:Tuple.t array * int ->
  unit ->
  Tuple.t array
(** Same contract as {!Sjos_exec.Stack_tree.join}. *)
