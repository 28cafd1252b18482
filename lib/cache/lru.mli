(** A size-bounded least-recently-used map with string keys.

    O(1) find/add via a hash table over an intrusive doubly-linked
    recency list.  [find] and [add] both promote the entry to
    most-recently-used; inserting into a full cache evicts the
    least-recently-used entry and reports its key.

    Thread-safe: each operation is individually atomic (an internal
    mutex guards the table and the recency list).  Compound
    read-modify-write sequences still need external synchronization —
    {!Plan_cache} provides it for the plan cache. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup; a hit promotes the entry to most-recently-used. *)

val add : 'a t -> string -> 'a -> string option
(** Insert or replace (either way the entry becomes most-recently-used).
    Returns the key evicted to make room, if any. *)
