open Sjos_obs

type entry = { plan_text : string; est_cost : float; algorithm : string }

type stamped = { entry : entry; stamp : int }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  capacity : int;
  epoch : int;
}

type t = {
  lru : stamped Lru.t;
  (* Serializes compound operations (find-then-remove, add-then-count)
     and the counters below, so a lookup's outcome and the counter it
     bumps can never disagree under concurrency.  Always taken before
     the Lru's own lock; never the other way around. *)
  m : Mutex.t;
  mutable epoch : int;
  (* Always-on counters, mirrored into the Registry only when observability
     is enabled (the registry must stay empty in no-op mode). *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(capacity = 256) () =
  {
    lru = Lru.create ~capacity;
    m = Mutex.create ();
    epoch = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let locked t f =
  Mutex.lock t.m;
  let r = f () in
  Mutex.unlock t.m;
  r

let observe name =
  if Registry.enabled () then Registry.incr (Registry.counter name)

let epoch t = locked t (fun () -> t.epoch)

let bump_epoch t =
  let e = locked t (fun () -> t.epoch <- t.epoch + 1; t.epoch) in
  if Registry.enabled () then
    Registry.set_gauge (Registry.gauge "plan_cache.epoch") (float_of_int e)

let find t key =
  locked t (fun () ->
      match Lru.find t.lru key with
      | Some s when s.stamp = t.epoch ->
          t.hits <- t.hits + 1;
          observe "plan_cache.hits";
          Some s.entry
      | Some _ ->
          (* Stale: stamped under an earlier epoch; drop it lazily. *)
          Lru.remove t.lru key;
          t.invalidations <- t.invalidations + 1;
          t.misses <- t.misses + 1;
          observe "plan_cache.invalidations";
          observe "plan_cache.misses";
          None
      | None ->
          t.misses <- t.misses + 1;
          observe "plan_cache.misses";
          None)

let add t key entry =
  locked t (fun () ->
      match Lru.add t.lru key { entry; stamp = t.epoch } with
      | Some _evicted ->
          t.evictions <- t.evictions + 1;
          observe "plan_cache.evictions"
      | None -> ())

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        entries = Lru.length t.lru;
        capacity = Lru.capacity t.lru;
        epoch = t.epoch;
      })

let stats_to_json (s : stats) =
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
      ("invalidations", Json.Int s.invalidations);
      ("entries", Json.Int s.entries);
      ("capacity", Json.Int s.capacity);
      ("epoch", Json.Int s.epoch);
    ]

let to_json t = stats_to_json (stats t)

let pp ppf t =
  let s = stats t in
  Fmt.pf ppf
    "plan cache: %d/%d entries, %d hits / %d misses (%d evictions, %d \
     invalidations), epoch %d"
    s.entries s.capacity s.hits s.misses s.evictions s.invalidations s.epoch
