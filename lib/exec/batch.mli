(** Columnar tuple batches for the batch execution engine.

    A batch stores [len] tuples of a fixed [width] in one flat row-major
    [int array] ([data.(row * width + slot)]), so the join and sort
    kernels move machine integers with [Array.blit]/unsafe loads instead
    of allocating a boxed [int array] per tuple and a cons cell per
    output.  Rows stay columnar between operators; {!to_tuples} recovers
    the classic {!Tuple.t array} surface only for the result of a plan
    whose root is not a join (a holistic twig, a sort or a lone scan) and
    in the tuple-array {!Operators.sort}.  A root join builds its boxed
    tuples directly ({!Stack_tree.out}); both allocate each row with
    {!Tuple.of_slice}. *)

open Sjos_xml

(** Reusable growable int buffers, grown by doubling, never through list
    conses: the join kernel's rectangle record and the twig kernel's
    buffers. *)
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

type t

val create : int -> t
(** [create width] — an empty batch of the given tuple width, with room
    for 64 rows before it grows. *)

val width : t -> int
val length : t -> int
(** Number of tuples (rows). *)

val data : t -> int array
(** The backing row-major storage; rows [0 .. length-1] are live (the
    array may have spare capacity past them).  Exposed for the join
    kernels; do not mutate elsewhere. *)

val get : t -> int -> int -> int
(** [get b row slot] — bounds-checked single-cell read. *)

val unsafe_of_raw : width:int -> len:int -> int array -> t
(** Wrap kernel-produced row-major storage without copying.  [data] may
    carry spare capacity past [len * width] rows; it must not be mutated
    afterwards.  Raises [Invalid_argument] if the array is too short. *)

val of_tuples : width:int -> Tuple.t array -> t
(** Pack an existing tuple array.  Raises [Invalid_argument] on a width
    mismatch. *)

val to_tuples : t -> Tuple.t array
(** The thin conversion back to the legacy surface: one fresh [Tuple.t]
    per row, allocated by {!Tuple.of_slice}. *)

val of_ids : width:int -> slot:int -> int array -> t
(** Index-scan constructor: row [i] binds only [slot], to [ids.(i)]. *)

val sort : doc:Document.t -> by:int -> t -> t
(** Stable sort of the rows by the document order of the node bound in
    slot [by].  Keys are read once from the document's [starts] column
    into a flat key array, an index permutation is sorted with a
    monomorphic int comparator (no [Document.node] calls inside the
    comparator), and rows are blitted into place.  Raises
    [Invalid_argument] if a row's [by] slot is unbound or out of range. *)
