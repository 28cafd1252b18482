(** The Stack-Tree family of structural join algorithms
    (Al-Khalifa et al., ICDE 2002), generalized to tuple inputs and
    implemented as columnar batch kernels.

    Both variants merge two inputs sorted by the document order of their
    join nodes, maintaining an in-memory stack of nested ancestor-side
    groups:

    - {b Stack-Tree-Desc} streams its output ordered by the descendant
      join node — no buffering at all;
    - {b Stack-Tree-Anc} produces output ordered by the ancestor join
      node, which requires buffering result pairs until the ancestor is
      popped — the source of the [2 |AB| f_IO] term in the cost model.

    The kernels operate over flat int columns (an index scan's candidate
    columns, or {!Batch.t} rows plus the document's position columns):
    grouping, the merge stack and the output are all int arrays — no
    list conses on the hot path — and the merge skips ahead over
    provably unproductive input runs (galloping the descendant start
    column, batch-dropping dead ancestor groups), counting what it
    skipped in {!Sjos_obs.Work.t.items_skipped}.
    Outputs, orderings and all other counters are bit-identical to the
    reference implementation kept in the tests' [Stack_tree_legacy].

    Both algorithms share one kernel body.  The merge records every
    related (ancestor group, descendant group) pair as a rectangle of
    rows, extending the previous rectangle while a one-row ancestor
    group meets consecutive descendant groups; the output is then
    taken once at its exact size and the rectangles are written in the
    algorithm's order (generation order for Desc, grouped by ancestor
    for Anc).  The output form — a flat {!Batch.t} for interior joins,
    boxed {!Tuple.t} rows for the plan's root join — is a type argument
    ({!out}) that only decides how rows are written.  A flat output
    carries the groups of its order's slot ({!Batch.grouped}): the
    descendant groups that met a pair for Desc, the ancestor groups for
    Anc.  The rectangles, per-group counts and merge stack live in a lane
    of the execution's {!Scratch} set, and a flat output, its groups and
    any grouping pass over a fetched stream are lent by the set's arena.
    So an interior join allocates nothing fresh, and a root join only
    its boxed rows.

    {b Budgets.}  The [max_tuples] ceiling is a clamp on each recorded
    group pair, worked out once per join: the pair that would cross it
    stops the join with the count of its first tuple past the ceiling,
    exactly where a per-tuple check would, before any row is written.
    Deadline and cancellation are polled every 256 merge steps and every
    256 written rectangles.

    Inputs sorted by their join node keep equal nodes adjacent;
    consecutive rows sharing the join node are processed as one group, so
    duplicate join-node values (the normal case for intermediate results)
    are handled exactly.

    {b Parallelism.}  Given a [pool] of size > 1, a large enough join is
    range-partitioned on the ancestor group column at forest-closed cut
    points (no ancestor interval straddles a cut).  Each shard records
    its ranges of the shared group columns with the unchanged serial
    merge on a pool domain, in its own lane of the set; per-shard work
    records are merged at the barrier.  The output is then taken once,
    and each shard writes its rows and groups into its own range of it,
    in shard order.  The result — tuples, ordering, and
    every counter including [items_skipped] — is bit-identical to the
    serial run by construction, for any shard count.  Sharding is
    declined (falling back to serial) when the budget carries a
    [max_tuples] ceiling, since stopping after exactly the n-th global
    tuple is inherently sequential; deadline/cancellation budgets are
    polled per shard and abort cooperatively.  [par_min_rows] (default
    4096 total input rows) keeps small joins serial. *)

open Sjos_xml
open Sjos_plan

(** {1 Join inputs}

    An input is either [Rows], a resident columnar batch — the output of
    a join, sort or twig operator, or an externally fetched candidate
    stream — or a [Leaf], one index scan's candidate columns bound in
    one slot.  A join's or a sort's batch carries the groups of the slot
    it is ordered by, which is the slot a valid plan joins it on, and
    those are reused as they are.  Any other [Rows] (a fetched stream, or
    a batch joined on a slot it carries no groups for) is grouped by the
    join slot with its positions looked up in the document by node id.
    A leaf is its own grouping: candidate ids are strictly increasing,
    so every row is a group and the group columns alias the candidate
    columns.

    A leaf is either resident ({!resident}, over the columns
    {!Sjos_storage.Column_store.select} returns) or lazy ({!leaf}, one
    list's on-disk columns served page-at-a-time by a
    {!Sjos_storage.Column_store.leaf}).  A lazy leaf faults in only what
    the merge examines: group metadata for groups actually compared,
    single [starts] probes for gallop skip-ahead (an O(log d) page cost
    for a skip over [d] items), and the [ids] column only for rows that
    reach an emitted pair.  Neither kind keeps rows of its own: a leaf's
    ids are written straight from its [ids] column into the output
    rows, and the page runs a lazy leaf has read are its
    {!Sjos_storage.Column_store.leaf}'s to track.  Outputs and all
    counters except page/IO accounting are bit-identical to running the
    same join over the materialized batch.

    Sharded (multi-domain) runs force leaf inputs resident before
    cutting, so their page accounting is a deterministic full scan
    independent of domain count. *)

type leaf_input

type input = Rows of Batch.t | Leaf of leaf_input

val leaf : width:int -> slot:int -> Sjos_storage.Column_store.leaf -> input
(** A lazy scan of the leaf's candidate list bound in [slot] of a
    width-[width] row.  The handle's page-run state becomes this
    input's, so each scan takes its own handle.  Raises
    [Invalid_argument] if [slot] is out of range. *)

val resident : width:int -> slot:int -> Cols.t -> input
(** A scan of resident candidate columns bound in [slot] of a
    width-[width] row.  The columns must be a candidate list of the
    document the input is joined over: ids strictly increasing, each
    row's positions those of its node, as the element index builds
    them.  The join trusts them and aliases them, so an external stream
    must go through {!Rows} instead.  Raises [Invalid_argument] if
    [slot] is out of range. *)

val input_rows : input -> int
(** Row count — answered without IO for a leaf. *)

val to_batch : Scratch.t -> input -> Batch.t
(** The input as a resident batch; a leaf's rows are lent by the set,
    and a lazy leaf is forced fully first (charging its full-scan page
    touches). *)

(** {1 Kernel internals shared with the holistic twig kernel}

    {!Twig_stack} drives the same input machinery — grouped candidate
    streams with lazy out-of-core faulting, and galloping skip-ahead —
    so leaves, probes and skip accounting behave identically whether a
    stream feeds a binary Stack-Tree merge or the holistic pass. *)

type groups = {
  n : int;  (** number of groups *)
  off : int array;
      (** row offsets delimiting each group, in the first [n + 1]
          entries (a leaf's identity offsets are shared and may run on) *)
  gstart : int array;  (** join-node start positions, strictly increasing *)
  gend : int array;
  glevel : int array;
  e_meta : int -> unit;  (** fault group [g]'s start/end/level *)
  e_probe : int -> unit;  (** fault group [g]'s start only (gallop probe) *)
  e_rows : int -> int -> unit;  (** fault absolute row range [lo, hi) *)
}
(** One input grouped by its join slot: consecutive rows sharing the
    join node form a group; the [e_*] closures fault a disk-backed
    leaf's pages in before the corresponding array slots, or the ids of
    the rows, are read (no-ops for [Rows] and resident leaves).  The
    same entries as the {!Batch.groups} an operator output carries. *)

val group_input : Scratch.t -> cols:Cols.t Lazy.t -> input -> int -> groups
(** Group an input by slot: a leaf on its own slot as described above,
    [Rows] that carry groups for [slot] by those groups (no pass, no
    document read), other [Rows] by a pass over the rows that reads
    positions from [cols], the document's position columns, forced only
    then, into group columns lent by the set.  That pass raises [Invalid_argument] when the input is not
    sorted by the slot, the slot is unbound, or an id is out of the
    document's range.  A leaf on another slot is unbound there: a
    non-empty one raises without any IO, an empty one has no groups. *)

val input_width : input -> int

val input_id : input -> int -> int -> int
(** [input_id i r slot] — the node id row [r] binds in [slot]
    ([Tuple.unbound] if none).  For a lazy leaf it is readable only
    after the covering {!groups.e_rows} call. *)

val gallop : probe:(int -> unit) -> int array -> int -> int -> int -> int
(** [gallop ~probe a lo hi target] — first index in [[lo, hi)] whose
    value is [>= target] ([hi] if none), by exponential probe plus
    binary search; [probe i] is called before [a.(i)] is read. *)

(** {1 Joining} *)

(** The output form of a join: a columnar batch for an interior join,
    boxed tuples for the plan's root join.  Both forms come out of the
    same kernel at their exact size; boxed rows are built exactly once
    by {!Tuple.of_slice}, not written flat and converted afterwards,
    because the root output is handed to the caller as [Tuple.t array]
    and dominates join-heavy runs. *)
type _ out = Flat : Batch.t out | Boxed : Tuple.t array out

val join_in :
  'o out ->
  Scratch.t ->
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  ?par_min_rows:int ->
  work:Sjos_obs.Work.t ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:input * int ->
  desc:input * int ->
  unit ->
  'o
(** [join_in out s ~work ~doc ~axis ~algo ~anc:(a, sa) ~desc:(d, sd) ()]
    joins the rows of [a] (whose slot [sa] holds the ancestor-side node,
    sorted by it) with [d] (slot [sd], sorted by it), returning merged
    rows in form [out], ordered by the ancestor (STJ-Anc) or descendant
    (STJ-Desc) node.  A [Flat] output is lent by the set [s]; a [Boxed]
    one is fresh.  Raises [Invalid_argument] if an input is not
    sorted by its join slot, a join slot is unbound, or the input widths
    differ.  A leaf joined on a slot other than its own bound slot is
    materialized first (its other slots are unbound, so such a join is
    degenerate anyway).

    [budget] (default unlimited, zero-cost) is polled from the merge
    loop: the deadline/cancellation flag every 256 merge steps, and the
    [max_tuples] ceiling as a clamp on each emitted group pair: the pair
    that would cross the ceiling raises {!Sjos_guard.Budget.Exhausted}
    with [Tuples_materialized { limit; count = limit + 1 }], the same
    stopping tuple as a per-tuple check.  The work record of a raising
    join is partial. *)

val join :
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  ?par_min_rows:int ->
  work:Sjos_obs.Work.t ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:Tuple.t array * int ->
  desc:Tuple.t array * int ->
  unit ->
  Tuple.t array
(** [join_in Boxed] behind the classic tuple-array surface, on a set of
    its own: inputs are packed with {!Batch.of_tuples}.  Same contract
    and same counters. *)

(** {1 Shard balance} *)

type shard_stats = {
  sharded_joins : int;  (** joins that ran on more than one shard *)
  shard_rows_total : int;  (** input rows summed over every shard *)
  shard_rows_max_weighted : int;
      (** per join, the largest shard's input rows times the shard
          count, summed *)
}

val shard_stats : unit -> shard_stats
(** Process-wide sums since start, always maintained and computed from
    the cuts alone, so they are deterministic for a given pool size and
    input.  [shard_rows_max_weighted / shard_rows_total] is a workload's
    balance, [1.0] when every shard got the same rows. *)
