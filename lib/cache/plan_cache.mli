(** A size-bounded LRU cache of chosen plans, keyed by strings (in practice
    ["<engine>|<algorithm>|<structural fingerprint>"]).

    The cache is polymorphic in what it stores, so it stays independent
    of the pattern and plan types.  The engine stores each chosen plan
    with its estimated cost, in the pattern's {e canonical} numbering:
    any pattern with the same fingerprint maps it back to its own
    numbering.

    Entries are never invalidated: a database's statistics and cost
    factors are fixed when it is built, so a plan chosen once stays the
    plan its key asks for until the LRU evicts it.

    Hit/miss/eviction counters are always maintained and read through
    {!stats}.

    Thread-safe: every operation runs under an internal mutex, so
    counters always agree with outcomes and [stats] snapshots are
    consistent. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type 'a t

val create : unit -> 'a t
(** An empty cache holding at most 256 plans. *)

val find : 'a t -> string -> 'a option
(** A hit promotes the entry to most-recently-used. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or replace), evicting the least-recently-used entry when
    full. *)

val stats : 'a t -> stats
val to_json : 'a t -> Sjos_obs.Json.t
val pp : 'a t Fmt.t
