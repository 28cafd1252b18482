(** Match tuples: partial mappings from pattern nodes to document nodes.

    A tuple is an int array of length [Pattern.node_count]; slot [i] holds
    the document node id bound to pattern node [i], or {!unbound}. *)

open Sjos_xml

type t = int array

val unbound : int
(** The sentinel for an unbound slot ([-1]). *)

val create : int -> t
(** All-unbound tuple of the given width. *)

val singleton : width:int -> int -> Node.t -> t
(** [singleton ~width slot node] binds exactly one slot. *)

val get : t -> int -> int

val is_bound : t -> int -> bool

val merge : t -> t -> t
(** Combine two tuples with disjoint bound slots.  Raises
    [Invalid_argument] when a slot is bound on both sides.  Implemented
    as a monomorphic int loop (no per-slot closure). *)

val of_slice : int array -> int -> int -> t
(** [of_slice a base width] — a fresh tuple holding
    [a.(base) .. a.(base + width - 1)], the one allocator of every boxed
    result row (root joins and {!Batch.to_tuples}).  Widths 1–8 are
    allocated inline; the range is not bounds-checked below width 9. *)

val bound_mask : t -> int
val to_string : t -> string

val equal : t -> t -> bool
(** Monomorphic int-array equality (not the polymorphic [( = )]). *)

val compare_by_slot : Document.t -> int -> t -> t -> int
(** Compare two tuples by the document order of the node bound in the given
    slot. *)
