(** A size-bounded LRU cache of chosen plans, keyed by strings (in practice
    ["<engine>|<algorithm>|<structural fingerprint>"]).

    Entries store the plan serialized with [Plan_io] against the pattern's
    {e canonical} numbering, so any pattern with the same fingerprint can
    deserialize and transport it back to its own numbering — the cache layer
    itself stays independent of the pattern and plan types.

    Entries are never invalidated: a database's statistics and cost
    factors are fixed when it is built, so a plan chosen once stays the
    plan its key asks for until the LRU evicts it.

    Hit/miss/eviction counters are always maintained locally (readable
    via {!stats}) and additionally mirrored into {!Sjos_obs.Registry}
    counters ([plan_cache.hits] etc.) when the registry is enabled; when
    it is disabled no instrument is ever registered.

    Thread-safe: every operation runs under an internal mutex, so
    counters always agree with outcomes and [stats] snapshots are
    consistent. *)

type entry = {
  plan_text : string;  (** [Plan_io] serialization in canonical numbering *)
  est_cost : float;  (** optimizer's estimated cost of the cached plan *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type t

val create : unit -> t
(** An empty cache holding at most 256 plans. *)

val find : t -> string -> entry option
(** A hit promotes the entry to most-recently-used. *)

val add : t -> string -> entry -> unit
(** Insert (or replace), evicting the least-recently-used entry when
    full. *)

val stats : t -> stats
val to_json : t -> Sjos_obs.Json.t
val pp : t Fmt.t
