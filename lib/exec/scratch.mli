(** Reusable int arrays for one execution's operators.

    {!Executor.execute} takes one set for the whole run.  Its operators
    take every array they return from the set's arena ({!alloc}): a
    join's rows and carried groups, a sort's rows and groups, a leaf
    forced to a batch, a fetched stream's groups.  The kernels keep their
    working buffers (rectangles, per-group counts, the merge stack, radix
    keys) in the set's lanes.  So an execution allocates only its result,
    the caller-facing tuples, which are never taken from a set.

    Sets come from one process-wide lock-free free list: a run owns its
    set until it returns (or raises), so pool domains and server threads
    sharing a domain never share a buffer.  The list holds at most as
    many sets as runs have held at once.  When a set goes back, a buffer
    longer than {!max_kept} is dropped, not kept, and so are its arena's
    free buffers past {!max_kept} ints in each power-of-two size
    class. *)

type lane = {
  mutable rects : int array;  (** join: rectangle triples *)
  mutable counts : int array;  (** join: pairs per key; sort: digit counts *)
  mutable stack : int array;  (** join: the merge's ancestor-group stack *)
  mutable keys : int array;  (** sort: packed keys *)
  mutable keys' : int array;  (** sort: the other half of each pass *)
}
(** One kernel's working buffers.  The arrays keep whatever the previous
    holder left in them: a kernel must write an entry before it reads
    it. *)

type t
(** One set: lanes and an arena. *)

val with_set : (t -> 'a) -> 'a
(** [with_set f] runs [f] on a set of its own and returns the set to
    the free list afterwards, also when [f] raises.  Every array {!alloc}
    lent to [f] is reused from then on: nothing [f] returns may hold
    one. *)

val alloc : t -> int -> int array
(** [alloc s n] — an array of at least [n] ints that [s] lends until it
    goes back to the free list.  Its contents are unspecified (whatever a
    previous holder wrote): write an entry before reading it. *)

val lane : t -> lane
(** The lane serial kernels use. *)

val lanes : t -> int -> lane array
(** [lanes s n] — at least [n] lanes, one per shard of a sharded join;
    the first is {!lane}.  Call it before handing lanes to other
    domains. *)

val reserve : int array -> int -> int array
(** [reserve a n] is [a] if it holds [n] ints, otherwise a fresh array
    of at least [n] (at least twice [a]'s length), contents unspecified. *)

val max_kept : int
(** The longest buffer, in ints, a returned set keeps. *)

val free_sets : unit -> int
(** Sets on the free list now. *)

val longest_kept : unit -> int
(** The longest buffer held by a set on the free list. *)
