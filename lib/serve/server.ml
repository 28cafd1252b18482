module Json = Sjos_obs.Json
module Clock = Sjos_obs.Clock
module Budget = Sjos_guard.Budget
module Error = Sjos_guard.Error
module Database = Sjos_engine.Database
module Query_opts = Sjos_engine.Query_opts
module Optimizer = Sjos_core.Optimizer

type config = {
  max_active : int;
  max_queue : int;
  default_deadline_ms : float option;
  watcher_period_s : float;
}

let default_config =
  {
    max_active = 4;
    max_queue = 16;
    default_deadline_ms = None;
    watcher_period_s = 0.025;
  }

type t = {
  db : Database.t;
  config : config;
  tenants : Tenant.registry;
  adm : Admission.t;
  pool : Sjos_par.Pool.t option;
  draining : bool Atomic.t;
  (* statements bound by [prepare], keyed "<tenant>/<name>" *)
  prepared :
    ( string,
      Sjos_pattern.Pattern.t * Optimizer.algorithm * Optimizer.engine )
    Hashtbl.t;
  m_prepared : Mutex.t;
  (* queries currently executing, so the watcher can cancel budgets whose
     client hung up *)
  mutable inflight : (Unix.file_descr option * Budget.t) list;
  m_inflight : Mutex.t;
  mutable watcher : Thread.t option;
  watcher_stop : bool Atomic.t;
  (* requests handled, exceptions that escaped a connection loop, and
     requests a raised cancellation flag stopped *)
  requests : int Atomic.t;
  escaped : int Atomic.t;
  cancelled : int Atomic.t;
}

let tenants t = t.tenants
let admission t = t.adm
let draining t = Atomic.get t.draining
let initiate_drain t = Atomic.set t.draining true

(* ---------- watcher ---------- *)

let watcher_tick t =
  let snapshot =
    Mutex.lock t.m_inflight;
    let l = t.inflight in
    Mutex.unlock t.m_inflight;
    l
  in
  List.iter
    (fun (fd, budget) ->
      match fd with
      | Some fd when Wire.peer_closed fd -> Budget.cancel budget
      | _ -> ())
    snapshot;
  (* wake queued waiters so they re-check deadlines and the drain flag
     even when no slot freed up *)
  Admission.notify t.adm

let start_watcher t =
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get t.watcher_stop) do
          (try watcher_tick t with _ -> ());
          Thread.delay t.config.watcher_period_s
        done)
      ()
  in
  t.watcher <- Some th

let shutdown t =
  if not (Atomic.get t.watcher_stop) then begin
    Atomic.set t.watcher_stop true;
    Option.iter Thread.join t.watcher;
    t.watcher <- None
  end

let create ?(config = default_config) ?tenants ?pool db =
  let tenants =
    match tenants with Some r -> r | None -> Tenant.registry []
  in
  let t =
    {
      db;
      config;
      tenants;
      adm = Admission.create ~max_active:config.max_active
              ~max_queue:config.max_queue;
      pool;
      draining = Atomic.make false;
      prepared = Hashtbl.create 16;
      m_prepared = Mutex.create ();
      inflight = [];
      m_inflight = Mutex.create ();
      watcher = None;
      watcher_stop = Atomic.make false;
      requests = Atomic.make 0;
      escaped = Atomic.make 0;
      cancelled = Atomic.make 0;
    }
  in
  start_watcher t;
  t

let with_inflight t client budget f =
  Mutex.lock t.m_inflight;
  t.inflight <- (client, budget) :: t.inflight;
  Mutex.unlock t.m_inflight;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m_inflight;
      t.inflight <-
        List.filter (fun (_, b) -> not (b == budget)) t.inflight;
      Mutex.unlock t.m_inflight)
    f

(* ---------- digest ---------- *)

(* splitmix64 finalizer folded over every slot of every tuple, order
   sensitive: equal digests mean bit-identical result sets. *)
let result_digest tuples =
  let mix h v =
    let z = Int64.add h (Int64.mul v 0x9E3779B97F4A7C15L) in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
              0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let h = ref 0x2545F4914F6CDD1DL in
  Array.iter
    (fun tup ->
      Array.iter (fun slot -> h := mix !h (Int64.of_int slot)) tup)
    tuples;
  Printf.sprintf "%016Lx" !h

(* ---------- request parsing helpers ---------- *)

let request_algorithm req =
  match Wire.string_field req "algorithm" with
  | None -> Optimizer.Dpp
  | Some s -> (
      match Optimizer.algorithm_of_string s with
      | Ok a -> a
      | Error msg -> Error.fail (Error.Invalid_request msg))

let request_engine req =
  match Wire.string_field req "engine" with
  | None -> Optimizer.Binary
  | Some s -> (
      match Optimizer.engine_of_string s with
      | Some e -> e
      | None ->
          Error.fail
            (Error.Invalid_request "expected engine binary, holistic or auto"))

let stmt_key tenant name = tenant ^ "/" ^ name

(* Either an inline pattern or a previously prepared statement. *)
let resolve_pattern t ~tenant req =
  match Wire.string_field req "name" with
  | Some name -> (
      Mutex.lock t.m_prepared;
      let bound = Hashtbl.find_opt t.prepared (stmt_key tenant name) in
      Mutex.unlock t.m_prepared;
      match bound with
      | Some pae -> pae
      | None ->
          Error.fail
            (Error.Invalid_request
               (Printf.sprintf "no prepared statement %S for tenant %s" name
                  tenant)))
  | None -> (
      match Wire.string_field req "pattern" with
      | Some s ->
          let xpath =
            Option.value (Wire.bool_field req "xpath") ~default:false
          in
          (Database.parse_pattern ~xpath s, request_algorithm req, request_engine req)
      | None ->
          Error.fail
            (Error.Invalid_request "request needs \"pattern\" or \"name\""))

let min_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (Float.min x y)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

let min_opt_int a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

let request_budget t (tenant : Tenant.t) req =
  let deadline_ms =
    min_opt
      (Wire.number_field req "deadline_ms")
      (min_opt tenant.quota.deadline_ms t.config.default_deadline_ms)
  in
  let max_tuples =
    min_opt_int (Wire.int_field req "limit") tenant.quota.max_tuples
  in
  (* always pass [cancelled] so the budget is never the [unlimited]
     sentinel: the watcher must be able to cancel it on disconnect *)
  Budget.make ?deadline_ms ?max_tuples ~cancelled:(Atomic.make false) ()

(* Chaos stall: burn the tenant's configured wall time before executing,
   polling the budget so cancellation and deadlines fire mid-stall. *)
let stall budget ms =
  if ms > 0.0 then begin
    let until = Int64.add (Clock.now_ns ()) (Int64.of_float (ms *. 1e6)) in
    let rec loop () =
      Budget.check budget ~during:"execute";
      if Clock.now_ns () < until then begin
        Thread.delay 0.002;
        loop ()
      end
    in
    loop ()
  end

let query_opts t (tenant : Tenant.t) ~algorithm ~engine ~budget =
  Query_opts.make ~algorithm ~engine ~budget ?chaos:tenant.chaos ?pool:t.pool ()

(* ---------- metrics ---------- *)

let serve_json t =
  Json.Obj
    [
      ("draining", Json.Bool (Atomic.get t.draining));
      ("active", Json.Int (Admission.active t.adm));
      ("queued", Json.Int (Admission.queued t.adm));
      ("max_active", Json.Int (Admission.max_active t.adm));
      ("max_queue", Json.Int (Admission.max_queue t.adm));
      ("requests", Json.Int (Atomic.get t.requests));
      ("escaped", Json.Int (Atomic.get t.escaped));
      ("cancelled", Json.Int (Atomic.get t.cancelled));
      ( "tenants",
        Json.List (List.map Tenant.to_json (Tenant.known t.tenants)) );
    ]

let metrics_fields t = Snapshot.fields t.db @ [ ("serve", serve_json t) ]

(* ---------- the ops ---------- *)

let exec_fields prep (run : Database.query_run) ~include_tuples =
  let tuples = run.exec.Sjos_exec.Executor.tuples in
  let base =
    [
      ("fingerprint", Json.Str (Database.prepared_fingerprint prep));
      ("plan_cached", Json.Bool (Database.prepared_from_cache prep));
      ("algorithm", Json.Str (Optimizer.name run.opt.Optimizer.algorithm));
      ( "degraded_from",
        match run.opt.Optimizer.degraded_from with
        | Some a -> Json.Str (Optimizer.name a)
        | None -> Json.Null );
      ("matches", Json.Int (Array.length tuples));
      ("digest", Json.Str (result_digest tuples));
      ("exec_seconds", Json.Float run.exec.Sjos_exec.Executor.seconds);
    ]
  in
  if include_tuples then
    base
    @ [
        ( "tuples",
          Json.List
            (Array.to_list
               (Array.map
                  (fun tup ->
                    Json.List
                      (Array.to_list (Array.map (fun v -> Json.Int v) tup)))
                  tuples)) );
      ]
  else base

let prepare_handle t (tenant : Tenant.t) ~opts pat =
  let prep = Database.prepare ~opts t.db pat in
  if Database.prepared_from_cache prep then Tenant.note_cache_hit tenant;
  prep

(* The guarded execution path every real op shares: tenant quota, then a
   bounded execution slot, then [Error.protect] around the work. *)
let admitted t ~client (tenant : Tenant.t) req work =
  match Tenant.admit tenant with
  | Error e -> Error e
  | Ok () ->
      Fun.protect ~finally:(fun () -> Tenant.release tenant) @@ fun () ->
      let budget = request_budget t tenant req in
      let should_abort () =
        if Atomic.get t.draining then
          Some
            (Error.Overloaded
               { reason = "server draining"; retry_after_ms = 1000.0 })
        else
          match Budget.poll budget with
          | Some r ->
              Some (Error.Budget_exhausted { resource = r; during = "admission" })
          | None -> None
      in
      let slot =
        Admission.with_slot t.adm ~should_abort (fun () ->
            with_inflight t client budget (fun () ->
                Error.protect (fun () ->
                    stall budget tenant.quota.stall_ms;
                    work budget)))
      in
      (match slot with
      | Error e -> Error e
      | Ok (Error e) -> Error e
      | Ok (Ok fields) -> Ok fields)

let handle_op t ~client req op =
  let tenant_name =
    Option.value (Wire.string_field req "tenant") ~default:"default"
  in
  (* Only ops that run a query resolve their tenant: a probe that names
     an unknown tenant creates none and spends no ad-hoc slot. *)
  let admitted f =
    let tenant = Tenant.find t.tenants tenant_name in
    admitted t ~client tenant req (f tenant)
  in
  let include_tuples =
    Option.value (Wire.bool_field req "include_tuples") ~default:false
  in
  match op with
  | "health" ->
      Ok
        [
          ( "status",
            Json.Str (if Atomic.get t.draining then "draining" else "ok") );
          ("draining", Json.Bool (Atomic.get t.draining));
          ("active", Json.Int (Admission.active t.adm));
          ("queued", Json.Int (Admission.queued t.adm));
        ]
  | "metrics" -> Ok (metrics_fields t)
  | "prepare" ->
      admitted (fun tenant budget ->
          let name =
            match Wire.string_field req "name" with
            | Some n -> n
            | None ->
                Error.fail (Error.Invalid_request "prepare needs \"name\"")
          in
          let pattern =
            match Wire.string_field req "pattern" with
            | Some s -> s
            | None ->
                Error.fail (Error.Invalid_request "prepare needs \"pattern\"")
          in
          let xpath =
            Option.value (Wire.bool_field req "xpath") ~default:false
          in
          let pat = Database.parse_pattern ~xpath pattern in
          let algorithm = request_algorithm req in
          let engine = request_engine req in
          let opts = query_opts t tenant ~algorithm ~engine ~budget in
          let prep = prepare_handle t tenant ~opts pat in
          Mutex.lock t.m_prepared;
          Hashtbl.replace t.prepared (stmt_key tenant_name name)
            (pat, algorithm, engine);
          Mutex.unlock t.m_prepared;
          [
            ("name", Json.Str name);
            ("fingerprint", Json.Str (Database.prepared_fingerprint prep));
            ("plan_cached", Json.Bool (Database.prepared_from_cache prep));
          ])
  | "exec" ->
      admitted (fun tenant budget ->
          let pat, algorithm, engine = resolve_pattern t ~tenant:tenant_name req in
          let opts = query_opts t tenant ~algorithm ~engine ~budget in
          let prep = prepare_handle t tenant ~opts pat in
          exec_fields prep (Database.exec prep) ~include_tuples)
  | "explain" ->
      admitted (fun tenant budget ->
          let pat, algorithm, engine = resolve_pattern t ~tenant:tenant_name req in
          let opts = query_opts t tenant ~algorithm ~engine ~budget in
          let prep = prepare_handle t tenant ~opts pat in
          [
            ("fingerprint", Json.Str (Database.prepared_fingerprint prep));
            ("plan", Json.Str (Database.explain_prepared prep));
          ])
  | "analyze" ->
      admitted (fun tenant budget ->
          let pat, algorithm, engine = resolve_pattern t ~tenant:tenant_name req in
          let opts = query_opts t tenant ~algorithm ~engine ~budget in
          let prep = prepare_handle t tenant ~opts pat in
          let a = Database.analyze_prepared prep in
          let tuples = a.Database.exec.Sjos_exec.Executor.tuples in
          [
            ("matches", Json.Int (Array.length tuples));
            ("digest", Json.Str (result_digest tuples));
            ("analysis", Sjos_plan.Explain.analysis_to_json pat a.Database.rows);
          ])
  | other ->
      Error (Error.Invalid_request (Printf.sprintf "unknown op %S" other))

let handle_request_fd t ~client req =
  Atomic.incr t.requests;
  let id = match Wire.field req "id" with Some j -> j | None -> Json.Null in
  let outcome =
    (* belt and braces: [admitted] already protects the execution path;
       this catches damage in parsing/op dispatch itself *)
    match
      Error.protect (fun () ->
          match Wire.string_field req "op" with
          | None -> Error (Error.Invalid_request "request needs \"op\"")
          | Some op -> handle_op t ~client req op)
    with
    | Ok r -> r
    | Error e -> Error e
  in
  match outcome with
  | Ok fields -> Json.Obj (("id", id) :: ("ok", Json.Bool true) :: fields)
  | Error e ->
      (match e with
      | Error.Budget_exhausted { resource = Budget.Cancelled; _ } ->
          Atomic.incr t.cancelled
      | _ -> ());
      Json.Obj
        [ ("id", id); ("ok", Json.Bool false); ("error", Error.to_json e) ]

let handle_request t req = handle_request_fd t ~client:None req

(* Serialize before writing: a response bigger than one wire frame
   (e.g. [include_tuples] on a huge result) must come back to the
   client as a structured error, not as [Wire.write_frame]'s
   [Invalid_argument] escaping to the connection loop (which would
   count an escaped exception and drop the connection). *)
let response_payload ~id resp =
  let payload = Json.to_string resp in
  if String.length payload <= Wire.max_frame_bytes then payload
  else begin
    let too_large id =
      Json.to_string
        (Json.Obj
           [
             ("id", id);
             ("ok", Json.Bool false);
             ( "error",
               Error.to_json
                 (Error.Invalid_request
                    (Printf.sprintf
                       "response too large for one frame (%d bytes > %d); \
                        set \"limit\" or drop \"include_tuples\""
                       (String.length payload) Wire.max_frame_bytes)) );
           ])
    in
    let e = too_large id in
    (* an adversarial near-frame-sized "id" could push the error frame
       itself over the ceiling; drop the echo rather than the client *)
    if String.length e <= Wire.max_frame_bytes then e else too_large Json.Null
  end

(* ---------- connections ---------- *)

let handle_connection t fd =
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Wire.wait_readable 0.1 fd with
      | `Timeout -> loop ()
      | `Readable -> (
          match Wire.read_frame fd with
          | Wire.Eof -> ()
          | Wire.Bad msg ->
              (* the stream is no longer frame-aligned: answer once, close *)
              let resp =
                Json.Obj
                  [
                    ("id", Json.Null);
                    ("ok", Json.Bool false);
                    ( "error",
                      Error.to_json
                        (Error.Invalid_request ("bad frame: " ^ msg)) );
                  ]
              in
              (try Wire.write_frame fd resp with
              | Unix.Unix_error _ -> ())
          | Wire.Frame req -> (
              let resp = handle_request_fd t ~client:(Some fd) req in
              let id =
                match Wire.field req "id" with
                | Some j -> j
                | None -> Json.Null
              in
              match Wire.write_payload fd (response_payload ~id resp) with
              | () -> loop ()
              | exception Unix.Unix_error _ -> ()))
  in
  (try loop () with
  | Unix.Unix_error _ -> ()
  | e ->
      (* must be unreachable: every op runs under [Error.protect] *)
      Atomic.incr t.escaped;
      Fmt.epr "sjos serve: escaped exception: %s@." (Printexc.to_string e))

let run t ~socket_path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink socket_path with Unix.Unix_error _ -> ()))
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX socket_path);
  Unix.listen sock 64;
  let m = Mutex.create () in
  (* live connections only: each handler flips its [done] flag when it
     finishes and the accept loop joins finished threads between
     accepts, so a long-running server does not retain one [Thread.t]
     per connection it ever served *)
  let threads = ref [] in
  let reap () =
    let finished =
      Mutex.lock m;
      let fin, live = List.partition (fun (_, d) -> Atomic.get d) !threads in
      threads := live;
      Mutex.unlock m;
      fin
    in
    (* joining a finished thread returns immediately *)
    List.iter (fun (th, _) -> Thread.join th) finished
  in
  let rec accept_loop () =
    if Atomic.get t.draining then ()
    else
      match Wire.wait_readable 0.2 sock with
      | `Timeout ->
          reap ();
          accept_loop ()
      | `Readable -> (
          match Wire.retry_intr (fun () -> Unix.accept ~cloexec:true sock) with
          | fd, _ ->
              let done_ = Atomic.make false in
              let th =
                Thread.create
                  (fun () ->
                    Fun.protect
                      ~finally:(fun () -> Atomic.set done_ true)
                      (fun () -> handle_connection t fd))
                  ()
              in
              Mutex.lock m;
              threads := (th, done_) :: !threads;
              Mutex.unlock m;
              accept_loop ()
          | exception Unix.Unix_error _ ->
              if Atomic.get t.draining then () else accept_loop ())
  in
  accept_loop ();
  (* drain: no new connections; the watcher keeps waking queued waiters
     (they shed) while in-flight requests run to completion *)
  List.iter (fun (th, _) -> Thread.join th) !threads;
  shutdown t;
  Fmt.epr "sjos serve: drained; final metrics: %s@."
    (Json.to_string (Json.Obj (metrics_fields t)))
