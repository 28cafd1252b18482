(** Columnar tuple batches for the batch execution engine.

    A batch stores [len] tuples of a fixed [width] in one flat row-major
    [int array] ([data.(row * width + slot)]), so the join and sort
    kernels move machine integers with [Array.blit]/unsafe loads instead
    of allocating a boxed [int array] per tuple and a cons cell per
    output.  Rows stay columnar between operators, in arrays lent by the
    execution's {!Scratch} set; {!to_tuples} recovers the classic
    {!Tuple.t array} surface only for the result of a plan whose root is
    not a join (a holistic twig, a sort or a lone scan) and in the
    tuple-array {!Operators.sort}.  A root join builds its boxed tuples
    directly ({!Stack_tree.out}); both allocate each row with
    {!Tuple.of_slice}, and neither keeps any of a set's arrays. *)

open Sjos_xml

(** Growable int buffers, grown by doubling, never through list conses:
    the twig kernel's path-solution blocks and output. *)
module Ibuf : sig
  type t

  val create : int -> t
  (** [create cap] — an empty buffer with the given initial capacity
      (clamped to at least 16). *)

  val length : t -> int
  val push : t -> int -> unit

  val data : t -> int array
  (** Backing storage; entries [0 .. length-1] are live.  Exposed for the
      join kernels; do not mutate elsewhere. *)
end

(** The groups of one slot in rows sorted by it: consecutive rows binding
    the same node form a group.  Group [k] spans rows
    [[off.(k), off.(k + 1))] and its node's start, end and level are
    [gstart.(k)], [gend.(k)] and [glevel.(k)]; starts strictly increase.
    These are the entries the join kernels group an input into, carried
    by the operators that already know them so the next join need not
    look them up again. *)
type groups = {
  slot : int;
  n : int;
  off : int array;  (** [n + 1] entries, [off.(n)] the row count *)
  gstart : int array;
  gend : int array;
  glevel : int array;
}

val make_groups : Scratch.t -> slot:int -> int -> groups
(** [make_groups s ~slot n] — room for [n] groups in arrays lent by [s],
    for an operator to fill in: every entry, [off.(n)] included, holds
    whatever an earlier holder left until it is written. *)

type t

val width : t -> int
val length : t -> int
(** Number of tuples (rows). *)

val data : t -> int array
(** The backing row-major storage; rows [0 .. length-1] are live (the
    array may have spare capacity past them).  Exposed for the join
    kernels; do not mutate elsewhere. *)

val get : t -> int -> int -> int
(** [get b row slot] — bounds-checked single-cell read. *)

val grouped : t -> groups option
(** The groups the batch carries: a join's output carries those of its
    output order's slot, a sort's those of its sort slot; a batch built
    any other way carries none. *)

val unsafe_of_raw : ?groups:groups -> width:int -> len:int -> int array -> t
(** Wrap kernel-produced row-major storage without copying.  [data] may
    carry spare capacity past [len * width] rows; it must not be mutated
    afterwards.  [groups], if given, must be the groups of [data]'s rows
    in their slot; they are trusted.  Raises [Invalid_argument] if the
    array is too short or the groups do not end at [len]. *)

val of_tuples : width:int -> Tuple.t array -> t
(** Pack an existing tuple array.  Raises [Invalid_argument] on a width
    mismatch. *)

val to_tuples : t -> Tuple.t array
(** The thin conversion back to the legacy surface: one fresh [Tuple.t]
    per row, allocated by {!Tuple.of_slice}. *)

val of_ids : Scratch.t -> width:int -> slot:int -> int array -> t
(** Index-scan constructor: row [i] binds only [slot], to [ids.(i)].
    The rows are lent by the set. *)

val sort : Scratch.t -> doc:Document.t -> by:int -> t -> t
(** Stable sort of the rows by the document order of the node bound in
    slot [by], carrying that slot's groups.  Pre-order ids are document
    order, so the sort is a stable LSD radix sort on the ids themselves
    (passes of at most 11 bits over the id range, keys packed with their
    row index in the set's {!Scratch.lane}) and reads no position to
    order rows; each group's positions are read once, in id order.  The
    sorted rows and the groups are lent by the set; rows already in
    order are shared, not copied.  Raises
    [Invalid_argument] if a row's [by] slot is unbound or out of range
    (["Batch.sort: id %d out of range"]), or if [by] is not a slot of a
    non-empty batch (["Batch.sort: slot out of range"]). *)
