(** Reusable int scratch for the join and sort kernels.

    {!Stack_tree} records its rectangles, per-group counts and merge
    stack, and {!Batch.sort} its radix keys, in arrays taken from a
    scratch set, so each kernel call allocates only the arrays it
    returns.  Sets come from one process-wide lock-free free list: a
    call owns its set until it returns (or raises), so pool domains and
    server threads sharing a domain never share a buffer.  The list
    holds at most as many sets as kernels have run at once, and a
    buffer longer than {!max_kept} is dropped, not kept, when its set
    goes back. *)

type t = {
  mutable rects : int array;  (** join: rectangle triples *)
  mutable counts : int array;  (** join: pairs per key; sort: digit counts *)
  mutable stack : int array;  (** join: the merge's ancestor-group stack *)
  mutable keys : int array;  (** sort: packed keys *)
  mutable keys' : int array;  (** sort: the other half of each pass *)
}
(** One set.  The arrays keep whatever the previous holder left in
    them: a kernel must write an entry before it reads it. *)

val with_set : (t -> 'a) -> 'a
(** [with_set f] runs [f] on a set of its own and returns the set to
    the free list afterwards, also when [f] raises. *)

val reserve : int array -> int -> int array
(** [reserve a n] is [a] if it holds [n] ints, otherwise a fresh array
    of at least [n] (at least twice [a]'s length), contents unspecified. *)

val max_kept : int
(** The longest buffer, in ints, a returned set keeps. *)

val free_sets : unit -> int
(** Sets on the free list now. *)

val longest_kept : unit -> int
(** The longest buffer held by a set on the free list. *)
