module Json = Sjos_obs.Json
module Chaos = Sjos_guard.Chaos
module Error = Sjos_guard.Error

type quota = {
  max_concurrent : int;
  rate_per_sec : float;
  burst : float;
  max_tuples : int option;
  deadline_ms : float option;
  chaos_seed : int option;
  chaos_faults : Chaos.fault list;
  stall_ms : float;
}

let default_quota =
  {
    max_concurrent = 8;
    rate_per_sec = 0.0;
    burst = 1.0;
    max_tuples = None;
    deadline_ms = None;
    chaos_seed = None;
    chaos_faults =
      [ Chaos.Truncate_candidates; Chaos.Unsort_candidates; Chaos.Lie_cardinalities ];
    stall_ms = 0.0;
  }

let fault_of_name = function
  | "truncate_candidates" -> Ok Chaos.Truncate_candidates
  | "unsort_candidates" -> Ok Chaos.Unsort_candidates
  | "lie_cardinalities" -> Ok Chaos.Lie_cardinalities
  | s -> Error (Printf.sprintf "unknown chaos fault %S" s)

let quota_of_json j =
  match j with
  | Json.Obj fields -> (
      let rec fold q = function
        | [] -> Ok q
        | (k, v) :: rest -> (
            let num () =
              match Json.number v with
              | Some f -> Ok f
              | None -> Error (Printf.sprintf "tenant field %S must be a number" k)
            in
            match k with
            | "max_concurrent" ->
                Result.bind (num ()) (fun f ->
                    fold { q with max_concurrent = int_of_float f } rest)
            | "rate_per_sec" ->
                Result.bind (num ()) (fun f -> fold { q with rate_per_sec = f } rest)
            | "burst" ->
                Result.bind (num ()) (fun f -> fold { q with burst = f } rest)
            | "max_tuples" ->
                Result.bind (num ()) (fun f ->
                    fold { q with max_tuples = Some (int_of_float f) } rest)
            | "deadline_ms" ->
                Result.bind (num ()) (fun f ->
                    fold { q with deadline_ms = Some f } rest)
            | "chaos_seed" ->
                Result.bind (num ()) (fun f ->
                    fold { q with chaos_seed = Some (int_of_float f) } rest)
            | "stall_ms" ->
                Result.bind (num ()) (fun f -> fold { q with stall_ms = f } rest)
            | "chaos_faults" -> (
                match v with
                | Json.List items ->
                    let rec parse acc = function
                      | [] -> Ok (List.rev acc)
                      | Json.Str s :: tl ->
                          Result.bind (fault_of_name s) (fun f -> parse (f :: acc) tl)
                      | _ -> Error "chaos_faults entries must be strings"
                    in
                    Result.bind (parse [] items) (fun fs ->
                        fold { q with chaos_faults = fs } rest)
                | _ -> Error "chaos_faults must be a list of fault names")
            | _ -> Error (Printf.sprintf "unknown tenant quota field %S" k))
      in
      fold default_quota fields)
  | _ -> Error "tenant quota must be a JSON object"

type t = {
  name : string;
  quota : quota;
  limiter : Limiter.t;
  active : int Atomic.t;
  admitted : int Atomic.t;
  shed : int Atomic.t;
  cache_hits : int Atomic.t;
  chaos : Chaos.t option;
}

let make name quota =
  let limiter =
    if quota.rate_per_sec <= 0.0 then Limiter.unlimited ()
    else Limiter.create ~rate_per_sec:quota.rate_per_sec ~burst:quota.burst
  in
  let chaos =
    Option.map
      (fun seed -> Chaos.create ~faults:quota.chaos_faults ~seed ())
      quota.chaos_seed
  in
  {
    name;
    quota;
    limiter;
    active = Atomic.make 0;
    admitted = Atomic.make 0;
    shed = Atomic.make 0;
    cache_hits = Atomic.make 0;
    chaos;
  }

let shed_err t reason retry_after_ms =
  Atomic.incr t.shed;
  Error.Overloaded { reason; retry_after_ms }

let admit t =
  match Limiter.try_take t.limiter with
  | Error retry_after_ms ->
      Error
        (shed_err t
           (Printf.sprintf "tenant %s rate limit exceeded" t.name)
           retry_after_ms)
  | Ok () ->
      (* Optimistic increment, back off when over the cap: keeps the check
         race-free across handler threads without a per-tenant lock. *)
      let n = Atomic.fetch_and_add t.active 1 + 1 in
      if t.quota.max_concurrent > 0 && n > t.quota.max_concurrent then begin
        Atomic.decr t.active;
        Error
          (shed_err t
             (Printf.sprintf "tenant %s at max_concurrent=%d" t.name
                t.quota.max_concurrent)
             50.0)
      end
      else begin
        Atomic.incr t.admitted;
        Ok ()
      end

let release t = Atomic.decr t.active

let note_cache_hit t = Atomic.incr t.cache_hits

type registry = {
  default : quota;
  max_ad_hoc : int;
  m : Mutex.t;
  tbl : (string, t) Hashtbl.t;
  mutable ad_hoc : int;
}

let overflow_name = "~overflow"

let registry ?(default = default_quota) ?(max_ad_hoc = 64) configured =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (name, q) -> Hashtbl.replace tbl name (make name q)) configured;
  { default; max_ad_hoc = max 0 max_ad_hoc; m = Mutex.create (); tbl; ad_hoc = 0 }

let find r name =
  Mutex.lock r.m;
  let t =
    match Hashtbl.find_opt r.tbl name with
    | Some t -> t
    | None when r.ad_hoc < r.max_ad_hoc ->
        let t = make name r.default in
        Hashtbl.add r.tbl name t;
        r.ad_hoc <- r.ad_hoc + 1;
        t
    | None -> (
        (* Ad-hoc cap reached: route further strangers to one shared
           overflow tenant, so a client inventing names cannot grow the
           registry without bound.  They still get the default quota —
           collectively. *)
        match Hashtbl.find_opt r.tbl overflow_name with
        | Some t -> t
        | None ->
            let t = make overflow_name r.default in
            Hashtbl.add r.tbl overflow_name t;
            t)
  in
  Mutex.unlock r.m;
  t

let known r =
  Mutex.lock r.m;
  let ts = Hashtbl.fold (fun _ t acc -> t :: acc) r.tbl [] in
  Mutex.unlock r.m;
  List.sort (fun a b -> String.compare a.name b.name) ts

let registry_of_json ?(default = default_quota) j =
  match j with
  | Json.Obj _ -> (
      let default_r =
        match Json.member "default" j with
        | None -> Ok default
        | Some dj -> quota_of_json dj
      in
      let max_ad_hoc_r =
        match Json.member "max_ad_hoc" j with
        | None -> Ok None
        | Some v -> (
            match Json.number v with
            | Some f -> Ok (Some (int_of_float f))
            | None -> Error "\"max_ad_hoc\" must be a number")
      in
      match (default_r, max_ad_hoc_r) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok default, Ok max_ad_hoc -> (
          match Json.member "tenants" j with
          | None -> Ok (registry ~default ?max_ad_hoc [])
          | Some (Json.Obj entries) ->
              let rec parse acc = function
                | [] -> Ok (registry ~default ?max_ad_hoc (List.rev acc))
                | (name, qj) :: rest ->
                    Result.bind (quota_of_json qj) (fun q ->
                        parse ((name, q) :: acc) rest)
              in
              parse [] entries
          | Some _ -> Error "\"tenants\" must be an object of name -> quota"))
  | _ -> Error "tenant config must be a JSON object"

let to_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("active", Json.Int (Atomic.get t.active));
      ("admitted", Json.Int (Atomic.get t.admitted));
      ("shed", Json.Int (Atomic.get t.shed));
      ("cache_hits", Json.Int (Atomic.get t.cache_hits));
      ("max_concurrent", Json.Int t.quota.max_concurrent);
      ("rate_per_sec", Json.Float t.quota.rate_per_sec);
      ( "chaos",
        match t.chaos with None -> Json.Bool false | Some c -> Chaos.to_json c );
    ]
