open Sjos_obs

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type 'a t = {
  lru : 'a Lru.t;
  (* Serializes each lookup or insertion with the counter it bumps, so
     an outcome and its counter can never disagree under concurrency.
     Always taken before the Lru's own lock; never the other way
     around. *)
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create () =
  {
    lru = Lru.create ~capacity:256;
    m = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.m;
  let r = f () in
  Mutex.unlock t.m;
  r

let find t key =
  locked t (fun () ->
      match Lru.find t.lru key with
      | Some _ as hit ->
          t.hits <- t.hits + 1;
          hit
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t key entry =
  locked t (fun () ->
      match Lru.add t.lru key entry with
      | Some _evicted -> t.evictions <- t.evictions + 1
      | None -> ())

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Lru.length t.lru;
        capacity = Lru.capacity t.lru;
      })

let stats_to_json (s : stats) =
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
      ("entries", Json.Int s.entries);
      ("capacity", Json.Int s.capacity);
    ]

let to_json t = stats_to_json (stats t)

let pp ppf t =
  let s = stats t in
  Fmt.pf ppf "plan cache: %d/%d entries, %d hits / %d misses (%d evictions)"
    s.entries s.capacity s.hits s.misses s.evictions
