(** A size-bounded LRU cache of chosen plans, keyed by strings (in practice
    ["<algorithm>|<structural fingerprint>"]).

    Entries store the plan serialized with [Plan_io] against the pattern's
    {e canonical} numbering, so any pattern with the same fingerprint can
    deserialize and transport it back to its own numbering — the cache layer
    itself stays independent of the pattern and plan types.

    Invalidation is epoch-based: every entry is stamped with the cache's
    epoch at insertion, and {!bump_epoch} (called when the owning database's
    statistics or cost factors change) makes all existing entries stale.
    Stale entries are discarded lazily on lookup and counted as
    invalidations.

    Hit/miss/eviction/invalidation counters are always maintained locally
    (readable via {!stats}) and additionally mirrored into
    {!Sjos_obs.Registry} counters ([plan_cache.hits] etc.) when the registry
    is enabled; when it is disabled no instrument is ever registered.

    Thread-safe: every operation (including the compound
    lookup-invalidate path) runs under an internal mutex, so counters
    always agree with outcomes and [stats] snapshots are consistent. *)

type entry = {
  plan_text : string;  (** [Plan_io] serialization in canonical numbering *)
  est_cost : float;  (** optimizer's estimated cost of the cached plan *)
  algorithm : string;  (** display name of the algorithm that chose it *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  capacity : int;
  epoch : int;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 entries. *)

val find : t -> string -> entry option
(** A current-epoch hit promotes the entry to most-recently-used.  A
    stale-epoch entry is removed and counted as an invalidation + miss. *)

val add : t -> string -> entry -> unit
(** Insert (or replace) under the current epoch, evicting the
    least-recently-used entry when full. *)

val bump_epoch : t -> unit
(** Invalidate every existing entry (lazily, on subsequent lookups). *)

val epoch : t -> int
val stats : t -> stats
val to_json : t -> Sjos_obs.Json.t
val pp : t Fmt.t
