(* The serve subsystem under test: wire framing, token buckets, bounded
   admission, tenant quotas, disconnect cancellation, drain, and the
   no-escaped-exceptions contract under per-tenant chaos.

   Protocol tests drive [Server.handle_connection] directly over a
   socketpair — no real listening socket, no subprocess — so they run in
   the normal alcotest binary at any SJOS_DOMAINS.  Seeded bits use
   [Helpers.seed]. *)

open Sjos_engine
module Json = Sjos_obs.Json
module Wire = Sjos_serve.Wire
module Limiter = Sjos_serve.Limiter
module Tenant = Sjos_serve.Tenant
module Admission = Sjos_serve.Admission
module Server = Sjos_serve.Server
module Error = Sjos_guard.Error

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let db = lazy (Database.of_document (Lazy.force Helpers.pers_1k))

let obj fields = Json.Obj fields

let str_field j k =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let ok_of j =
  match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let error_class j =
  match Option.bind (Json.member "error" j) (Json.member "class") with
  | Some (Json.Str c) -> c
  | _ -> "<no error class>"

let int_of j k =
  match Json.member k j with Some (Json.Int n) -> n | _ -> -1

(* ---------- wire framing ---------- *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let msgs =
    [
      Json.Null;
      obj [ ("op", Json.Str "health"); ("id", Json.Int 42) ];
      Json.List [ Json.Int 1; Json.Str "x\n\"y"; Json.Bool false ];
      Json.Str (String.make 70_000 'z');
    ]
  in
  List.iter (fun m -> Wire.write_frame a m) msgs;
  List.iter
    (fun expected ->
      match Wire.read_frame b with
      | Wire.Frame got ->
          check cb "frame round-trips" true (Json.equal expected got)
      | Wire.Eof -> Alcotest.fail "unexpected EOF"
      | Wire.Bad msg -> Alcotest.fail ("bad frame: " ^ msg))
    msgs;
  Unix.close a;
  (match Wire.read_frame b with
  | Wire.Eof -> ()
  | _ -> Alcotest.fail "expected EOF after peer close");
  check cb "peer_closed detects the close" true (Wire.peer_closed b)

let test_wire_rejects_oversize () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a header announcing more than max_frame_bytes must be rejected
     without buffering the payload *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame_bytes + 1));
  let _ = Unix.write a hdr 0 4 in
  (match Wire.read_frame b with
  | Wire.Bad _ -> ()
  | _ -> Alcotest.fail "oversized frame accepted");
  match
    Wire.write_frame a (Json.Str (String.make (Wire.max_frame_bytes + 1) 'x'))
  with
  | () -> Alcotest.fail "oversized write accepted"
  | exception Invalid_argument _ -> ()

(* ---------- limiter ---------- *)

let test_limiter_deterministic () =
  let l = Limiter.create ~rate_per_sec:10.0 ~burst:2.0 in
  let t0 = 1_000_000_000L in
  let take now = Limiter.try_take ~now_ns:now l in
  check cb "burst token 1" true (Result.is_ok (take t0));
  check cb "burst token 2" true (Result.is_ok (take t0));
  (match take t0 with
  | Error retry_ms ->
      check cb "retry hint positive" true (retry_ms > 0.0);
      check cb "retry hint sane" true (retry_ms <= 100.0)
  | Ok () -> Alcotest.fail "empty bucket admitted");
  (* 100 ms refills exactly one token at 10/s *)
  let t1 = Int64.add t0 100_000_000L in
  check cb "refilled token" true (Result.is_ok (take t1));
  check cb "only one token refilled" true (Result.is_error (take t1))

(* ---------- server fixtures ---------- *)

let tenant_config =
  Printf.sprintf
    {|{"tenants":
        {"throttled": {"rate_per_sec": 0.000001, "burst": 1},
         "capped":    {"max_concurrent": 1},
         "slow":      {"stall_ms": 3000},
         "draindemo": {"stall_ms": 300},
         "chaotic":   {"chaos_seed": %d, "stall_ms": 1}}}|}
    Helpers.seed

let make_server ?(max_active = 2) ?(max_queue = 2) () =
  let tenants =
    match
      Result.bind (Json.of_string tenant_config) (Tenant.registry_of_json)
    with
    | Ok r -> r
    | Error msg -> Alcotest.fail ("tenant config: " ^ msg)
  in
  let config =
    { Server.default_config with max_active; max_queue }
  in
  Server.create ~config ~tenants (Lazy.force db)

let request ?(tenant = "default") ?(id = 1) op extra =
  obj
    ([ ("op", Json.Str op); ("id", Json.Int id); ("tenant", Json.Str tenant) ]
    @ extra)

let exec_req ?tenant ?id pattern =
  request ?tenant ?id "exec" [ ("pattern", Json.Str pattern) ]

(* The metrics endpoint's response, and its ["serve"] block. *)
let metrics srv = Server.handle_request srv (request "metrics" [])

let serve_block resp =
  match Json.member "serve" resp with
  | Some s -> s
  | None -> Alcotest.fail "metrics response lacks a serve block"

let q1 = "manager(//employee(/name))"
let q2 = "manager(/department(/name))"

(* ---------- protocol over a socketpair ---------- *)

let with_connection srv f =
  let client, server_side = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th = Thread.create (fun () -> Server.handle_connection srv server_side) () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client with Unix.Unix_error _ -> ());
      Thread.join th)
    (fun () -> f client)

let roundtrip fd req =
  Wire.write_frame fd req;
  match Wire.read_frame fd with
  | Wire.Frame j -> j
  | Wire.Eof -> Alcotest.fail "unexpected EOF from server"
  | Wire.Bad msg -> Alcotest.fail ("bad response frame: " ^ msg)

let test_protocol_roundtrip () =
  let srv = make_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  with_connection srv @@ fun fd ->
  (* health *)
  let h = roundtrip fd (request "health" []) in
  check cb "health ok" true (ok_of h);
  check (Alcotest.option cs) "health status" (Some "ok") (str_field h "status");
  (* prepare then exec by name, pipelined on one connection *)
  let p =
    roundtrip fd
      (request "prepare"
         [ ("name", Json.Str "s1"); ("pattern", Json.Str q1) ])
  in
  check cb "prepare ok" true (ok_of p);
  let e1 = roundtrip fd (request "exec" [ ("name", Json.Str "s1") ]) in
  check cb "exec by name ok" true (ok_of e1);
  let direct = Database.run (Lazy.force db) (Helpers.pat q1) in
  check ci "served matches = direct matches"
    (Array.length direct.Database.exec.Sjos_exec.Executor.tuples)
    (int_of e1 "matches");
  check (Alcotest.option cs) "served digest = direct digest"
    (Some (Server.result_digest direct.Database.exec.Sjos_exec.Executor.tuples))
    (str_field e1 "digest");
  (* inline exec of a second pattern on the same connection *)
  let e2 = roundtrip fd (exec_req q2) in
  check cb "inline exec ok" true (ok_of e2);
  (* explain and analyze *)
  let ex = roundtrip fd (request "explain" [ ("pattern", Json.Str q1) ]) in
  check cb "explain ok" true (ok_of ex);
  check cb "explain has a plan" true (str_field ex "plan" <> None);
  let an = roundtrip fd (request "analyze" [ ("pattern", Json.Str q1) ]) in
  check cb "analyze ok" true (ok_of an);
  check cb "analyze has rows" true (Json.member "analysis" an <> None);
  (* errors stay structured and the connection stays usable *)
  let bad = roundtrip fd (request "exec" [ ("pattern", Json.Str "((" ) ]) in
  check cb "parse error not ok" false (ok_of bad);
  check cs "parse error class" "parse_error" (error_class bad);
  let unk = roundtrip fd (request "frobnicate" []) in
  check cs "unknown op class" "invalid_request" (error_class unk);
  let missing = roundtrip fd (request "exec" [ ("name", Json.Str "nope") ]) in
  check cs "unknown statement class" "invalid_request" (error_class missing);
  (* id echo *)
  let echoed = roundtrip fd (request ~id:77 "health" []) in
  check ci "id echoed" 77 (int_of echoed "id")

let test_exec_matches_direct_all_ops () =
  let srv = make_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  List.iter
    (fun pattern ->
      let resp = Server.handle_request srv (exec_req pattern) in
      check cb (pattern ^ " ok") true (ok_of resp);
      let direct = Database.run (Lazy.force db) (Helpers.pat pattern) in
      check (Alcotest.option cs) (pattern ^ " digest")
        (Some
           (Server.result_digest
              direct.Database.exec.Sjos_exec.Executor.tuples))
        (str_field resp "digest"))
    [ q1; q2; "employee(/name)"; "manager(//department)" ]

(* The "algorithm" field reads the same names as [sjos query -a]. *)
let test_exec_algorithm_names () =
  let srv = make_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let exec_with algorithm =
    Server.handle_request srv
      (request "exec"
         [ ("pattern", Json.Str q1); ("algorithm", Json.Str algorithm) ])
  in
  List.iter
    (fun (name, shown) ->
      let resp = exec_with name in
      check cb (name ^ " ok") true (ok_of resp);
      check (Alcotest.option cs) (name ^ " runs as " ^ shown) (Some shown)
        (str_field resp "algorithm"))
    [ ("bigdp:64", "BigDP(64)"); ("dpap-eb:2", "DPAP-EB(2)") ];
  check cs "unknown algorithm class" "invalid_request"
    (error_class (exec_with "nope"))

(* Plan-cache hit statistics are namespaced per tenant, but the cached
   plan itself is keyed by the structural fingerprint and shared: the
   second tenant to ask an identical query reuses the first tenant's
   plan. *)
let test_cross_tenant_cache_reuse () =
  let srv = make_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let bool_field j k =
    match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
  in
  (* a pattern no other test runs, so the shared db's cache is cold *)
  let q = "department(//employee)" in
  let r1 = Server.handle_request srv (exec_req ~tenant:"alice" q) in
  check cb "alice ok" true (ok_of r1);
  check (Alcotest.option cb) "alice optimizes cold" (Some false)
    (bool_field r1 "plan_cached");
  let r2 = Server.handle_request srv (exec_req ~tenant:"bob" q) in
  check cb "bob ok" true (ok_of r2);
  check (Alcotest.option cb) "bob reuses alice's plan" (Some true)
    (bool_field r2 "plan_cached");
  check cb "identical digests across tenants" true
    (str_field r1 "digest" = str_field r2 "digest"
    && str_field r1 "digest" <> None);
  let hits name =
    Atomic.get (Tenant.find (Server.tenants srv) name).Tenant.cache_hits
  in
  check ci "hit counted against bob" 1 (hits "bob");
  check ci "no hit counted against alice" 0 (hits "alice")

(* ---------- admission control ---------- *)

let test_queue_overflow_sheds () =
  let srv = make_server ~max_active:1 ~max_queue:0 () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let adm = Server.admission srv in
  check cb "pin the only slot" true (Admission.try_acquire adm);
  Fun.protect ~finally:(fun () -> Admission.release adm) @@ fun () ->
  let resp = Server.handle_request srv (exec_req q1) in
  check cb "shed response not ok" false (ok_of resp);
  check cs "shed class" "overloaded" (error_class resp);
  (match Option.bind (Json.member "error" resp) (Json.member "retry_after_ms")
   with
  | Some j -> (
      match Json.number j with
      | Some ms -> check cb "retry_after_ms positive" true (ms > 0.0)
      | None -> Alcotest.fail "retry_after_ms not numeric")
  | None -> Alcotest.fail "overloaded carries retry_after_ms");
  (* freed slot admits again *)
  Admission.release adm;
  let ok_resp = Server.handle_request srv (exec_req q1) in
  check cb "admits after release" true (ok_of ok_resp);
  check cb "re-pin for finally" true (Admission.try_acquire adm)

let test_queued_request_proceeds () =
  let srv = make_server ~max_active:1 ~max_queue:2 () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let adm = Server.admission srv in
  check cb "pin slot" true (Admission.try_acquire adm);
  let result = ref Json.Null in
  let th =
    Thread.create
      (fun () -> result := Server.handle_request srv (exec_req q1))
      ()
  in
  (* give the request time to enqueue, then free the slot; the watcher
     (or the release signal) wakes it *)
  Thread.delay 0.15;
  check ci "request is queued" 1 (Admission.queued adm);
  Admission.release adm;
  Thread.join th;
  check cb "queued request completed" true (ok_of !result)

let test_tenant_isolation () =
  let srv = make_server ~max_active:4 ~max_queue:4 () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  (* throttled tenant: burst of 1, negligible refill — second request
     sheds; the default tenant is unaffected before, between and after *)
  let r1 = Server.handle_request srv (exec_req ~tenant:"throttled" q1) in
  check cb "throttled first request admitted" true (ok_of r1);
  let r2 = Server.handle_request srv (exec_req ~tenant:"throttled" q1) in
  check cs "throttled second request shed" "overloaded" (error_class r2);
  let other = Server.handle_request srv (exec_req q1) in
  check cb "default tenant unaffected" true (ok_of other);
  (* capped tenant: one concurrent query; a second concurrent one sheds.
     The 'slow' stall keeps the first occupying its quota slot. *)
  let slow_started = Thread.create
      (fun () ->
        ignore
          (Server.handle_request srv
             (request ~tenant:"capped" "exec"
                [ ("pattern", Json.Str q1); ("deadline_ms", Json.Float 400.0) ])))
      ()
  in
  ignore slow_started;
  (* no reliable cross-thread start signal: the capped tenant has no
     stall, so instead check the counters after both complete *)
  Thread.join slow_started;
  let t = Tenant.find (Server.tenants srv) "capped" in
  check cb "capped tenant ran" true (Atomic.get t.Tenant.admitted >= 1)

let test_capped_tenant_sheds_concurrent () =
  let srv = make_server ~max_active:4 ~max_queue:4 () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  (* 'slow' stalls 3 s; its tenant allows 8 concurrent, so pin the
     capped tenant by hand instead: max_concurrent=1 *)
  let t = Tenant.find (Server.tenants srv) "capped" in
  (match Tenant.admit t with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first admit must pass");
  let resp = Server.handle_request srv (exec_req ~tenant:"capped" q1) in
  check cs "concurrent over quota sheds" "overloaded" (error_class resp);
  Tenant.release t;
  let resp2 = Server.handle_request srv (exec_req ~tenant:"capped" q1) in
  check cb "admits after release" true (ok_of resp2)

(* ---------- disconnect cancellation ---------- *)

let test_disconnect_cancels () =
  let srv = make_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let client, server_side = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th =
    Thread.create (fun () -> Server.handle_connection srv server_side) ()
  in
  (* 'slow' stalls 3 s polling its budget; hang up mid-stall.  The
     watcher peeks the dead socket and cancels the budget — the handler
     thread must come back long before the stall would have ended. *)
  Wire.write_frame client (exec_req ~tenant:"slow" q1);
  Thread.delay 0.2;
  Unix.close client;
  let t0 = Unix.gettimeofday () in
  Thread.join th;
  let waited = Unix.gettimeofday () -. t0 in
  check cb
    (Printf.sprintf "handler unwound by cancellation, not the stall (%.2fs)"
       waited)
    true (waited < 2.0);
  check ci "server counted the cancelled request" 1
    (int_of (serve_block (metrics srv)) "cancelled")

(* ---------- drain ---------- *)

let test_drain_completes_inflight () =
  let srv = make_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  with_connection srv @@ fun fd ->
  (* 'draindemo' stalls 300 ms: start it, then drain mid-flight *)
  Wire.write_frame fd (exec_req ~tenant:"draindemo" q1);
  Thread.delay 0.05;
  Server.initiate_drain srv;
  check cb "draining flag set" true (Server.draining srv);
  (match Wire.read_frame fd with
  | Wire.Frame resp ->
      check cb "in-flight request completed during drain" true (ok_of resp)
  | Wire.Eof -> Alcotest.fail "in-flight response lost to drain"
  | Wire.Bad msg -> Alcotest.fail ("bad frame: " ^ msg));
  (* the connection loop observes the drain flag and closes *)
  match Wire.read_frame fd with
  | Wire.Eof -> ()
  | Wire.Frame _ -> Alcotest.fail "connection outlived drain"
  | Wire.Bad msg -> Alcotest.fail ("bad frame: " ^ msg)

let test_drain_sheds_queued () =
  let srv = make_server ~max_active:1 ~max_queue:4 () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let adm = Server.admission srv in
  check cb "pin slot" true (Admission.try_acquire adm);
  Fun.protect ~finally:(fun () -> Admission.release adm) @@ fun () ->
  let result = ref Json.Null in
  let th =
    Thread.create
      (fun () -> result := Server.handle_request srv (exec_req q1))
      ()
  in
  Thread.delay 0.15;
  check ci "request queued behind the pin" 1 (Admission.queued adm);
  Server.initiate_drain srv;
  Thread.join th;
  check cs "queued request shed on drain" "overloaded" (error_class !result)

(* ---------- chaos under load ---------- *)

let test_chaos_structured_errors_only () =
  let srv = make_server ~max_active:4 ~max_queue:8 () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let patterns = [| q1; q2; "employee(/name)"; "manager(//department)" |] in
  let classes = Error.all_class_names in
  for i = 0 to 59 do
    let pattern = patterns.(i mod Array.length patterns) in
    let resp =
      Server.handle_request srv (exec_req ~tenant:"chaotic" ~id:i pattern)
    in
    (* the contract: every response is well-formed; failures carry a
       known class; nothing ever escapes as an exception *)
    match Json.member "ok" resp with
    | Some (Json.Bool true) ->
        check cb
          (Printf.sprintf "request %d has a digest" i)
          true
          (str_field resp "digest" <> None)
    | Some (Json.Bool false) ->
        let cls = error_class resp in
        check cb
          (Printf.sprintf "request %d error class %S is known" i cls)
          true (List.mem cls classes)
    | _ -> Alcotest.failf "request %d: response without ok field" i
  done

(* ---------- oversized responses ---------- *)

let test_oversized_response_structured () =
  (* a response that cannot fit one wire frame must be replaced by a
     structured invalid_request (echoing the id), never surface as
     Wire.write_frame's Invalid_argument / an escaped exception *)
  let huge = obj [ ("ok", Json.Bool true);
                   ("tuples", Json.Str (String.make (Wire.max_frame_bytes + 1) 'x')) ] in
  let payload = Server.response_payload ~id:(Json.Int 9) huge in
  check cb "substitute fits a frame" true
    (String.length payload <= Wire.max_frame_bytes);
  (match Json.of_string payload with
  | Error msg -> Alcotest.fail ("substitute is not JSON: " ^ msg)
  | Ok j ->
      check cb "substitute is an error response" false (ok_of j);
      check cs "substitute class" "invalid_request" (error_class j);
      check ci "substitute echoes the id" 9 (int_of j "id"));
  (* a small response passes through verbatim *)
  let small = obj [ ("ok", Json.Bool true) ] in
  check cs "small responses unchanged" (Json.to_string small)
    (Server.response_payload ~id:(Json.Int 1) small)

(* ---------- tenant registry bounds ---------- *)

let test_tenant_registry_bounded () =
  let reg =
    Tenant.registry ~max_ad_hoc:2 [ ("cfg", Tenant.default_quota) ]
  in
  let a = Tenant.find reg "a" in
  let b = Tenant.find reg "b" in
  check cb "ad-hoc tenants distinct under the cap" true (not (a == b));
  check cb "repeat lookup is stable" true (Tenant.find reg "a" == a);
  (* past the cap: arbitrary fresh names share one overflow tenant *)
  let c = Tenant.find reg "stranger-3" in
  let d = Tenant.find reg "stranger-4" in
  check cb "over-cap strangers share the overflow tenant" true (c == d);
  check cs "overflow tenant name" "~overflow" c.Tenant.name;
  (* cfg + a + b + ~overflow: the registry no longer grows *)
  check ci "registry stays bounded" 4 (List.length (Tenant.known reg));
  check cb "configured tenant still resolves" true
    (Tenant.find reg "cfg" == Tenant.find reg "cfg")

(* ---------- admission fairness ---------- *)

let test_arrivals_do_not_overtake_queue () =
  let adm = Admission.create ~max_active:1 ~max_queue:4 in
  check cb "pin the only slot" true (Admission.try_acquire adm);
  let gate = Atomic.make false in
  let ran = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        ignore
          (Admission.with_slot adm
             ~should_abort:(fun () -> None)
             (fun () ->
               Atomic.set ran true;
               while not (Atomic.get gate) do
                 Thread.delay 0.005
               done)))
      ()
  in
  let rec wait_queued n =
    if Admission.queued adm = 1 || n = 0 then ()
    else begin
      Thread.delay 0.01;
      wait_queued (n - 1)
    end
  in
  wait_queued 200;
  check ci "waiter is queued" 1 (Admission.queued adm);
  (* free the slot: whether or not the waiter has woken yet, a fresh
     arrival must not grab the slot ahead of the queue *)
  Admission.release adm;
  check cb "arrival cannot overtake the queue" false (Admission.try_acquire adm);
  Atomic.set gate true;
  Thread.join th;
  check cb "queued waiter got the slot" true (Atomic.get ran);
  (* queue empty again: the fast path reopens *)
  check cb "fast path reopens once the queue drains" true
    (Admission.try_acquire adm);
  Admission.release adm

(* ---------- tenant config parsing ---------- *)

let test_tenant_config_errors () =
  (match
     Result.bind
       (Json.of_string {|{"tenants": {"x": {"rate_per_sec": "fast"}}}|})
       Tenant.registry_of_json
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric rate accepted");
  (match
     Result.bind
       (Json.of_string {|{"tenants": {"x": {"chaos_faults": ["nope"]}}}|})
       Tenant.registry_of_json
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault accepted");
  match
    Result.bind
      (Json.of_string
         {|{"default": {"max_concurrent": 3},
            "tenants": {"x": {"chaos_faults": ["truncate_candidates"],
                              "chaos_seed": 5}}}|})
      Tenant.registry_of_json
  with
  | Error msg -> Alcotest.fail msg
  | Ok reg ->
      let stranger = Tenant.find reg "unseen" in
      check ci "stranger gets default quota" 3
        stranger.Tenant.quota.Tenant.max_concurrent;
      let x = Tenant.find reg "x" in
      check cb "configured tenant has chaos" true (x.Tenant.chaos <> None)

(* ---------- metrics without any enabling call ---------- *)

let test_metrics_always_counted () =
  let srv = make_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let n = 5 in
  for i = 1 to n do
    let pattern = if i mod 2 = 0 then q2 else q1 in
    let resp = Server.handle_request srv (exec_req ~id:i pattern) in
    check cb (Printf.sprintf "exec %d ok" i) true (ok_of resp)
  done;
  let resp = metrics srv in
  check cb "metrics ok" true (ok_of resp);
  let serve = serve_block resp in
  check ci "requests counted, this one included" (n + 1)
    (int_of serve "requests");
  check ci "nothing escaped" 0 (int_of serve "escaped");
  check ci "nothing cancelled" 0 (int_of serve "cancelled");
  let admitted =
    match Json.member "tenants" serve with
    | Some (Json.List ts) ->
        List.find_map
          (fun t ->
            if str_field t "name" = Some "default" then
              Some (int_of t "admitted")
            else None)
          ts
    | _ -> None
  in
  check (Alcotest.option ci) "default tenant admitted every exec" (Some n)
    admitted;
  match Json.member "plan_cache" resp with
  | Some pc ->
      check cb "every exec looked its plan up" true
        (int_of pc "hits" + int_of pc "misses" >= n)
  | None -> Alcotest.fail "metrics response lacks plan_cache"

(* Only query ops resolve a tenant: [health] and [metrics] probes naming
   a stranger create no tenant, so the one ad-hoc slot is still free for
   the first tenant that runs a query. *)
let test_probes_create_no_tenant () =
  let tenants = Tenant.registry ~max_ad_hoc:1 [] in
  let srv = Server.create ~tenants (Lazy.force db) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let names () =
    List.map (fun (x : Tenant.t) -> x.Tenant.name) (Tenant.known tenants)
  in
  let before = names () in
  List.iteri
    (fun i op ->
      let resp =
        Server.handle_request srv (request ~tenant:"stranger" ~id:i op [])
      in
      check cb (op ^ " ok") true (ok_of resp))
    [ "health"; "metrics"; "health" ];
  check (Alcotest.list Alcotest.string) "probes create no tenant" before
    (names ());
  check cb "exec ok" true
    (ok_of (Server.handle_request srv (exec_req ~tenant:"newcomer" q1)));
  check (Alcotest.list Alcotest.string) "the ad-hoc slot went to a query"
    (List.sort compare ("newcomer" :: before))
    (names ())

let suite =
  [
    Alcotest.test_case "wire round-trip and EOF" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire rejects oversized frames" `Quick
      test_wire_rejects_oversize;
    Alcotest.test_case "limiter is deterministic in injected time" `Quick
      test_limiter_deterministic;
    Alcotest.test_case "protocol round-trip over socketpair" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "cross-tenant plan reuse, namespaced hit counts"
      `Quick test_cross_tenant_cache_reuse;
    Alcotest.test_case "served results identical to direct exec" `Quick
      test_exec_matches_direct_all_ops;
    Alcotest.test_case "exec accepts the CLI algorithm names" `Quick
      test_exec_algorithm_names;
    Alcotest.test_case "full queue sheds with overloaded" `Quick
      test_queue_overflow_sheds;
    Alcotest.test_case "queued request proceeds when a slot frees" `Quick
      test_queued_request_proceeds;
    Alcotest.test_case "tenant rate limits are isolated" `Quick
      test_tenant_isolation;
    Alcotest.test_case "tenant concurrency cap sheds" `Quick
      test_capped_tenant_sheds_concurrent;
    Alcotest.test_case "client disconnect cancels the query" `Quick
      test_disconnect_cancels;
    Alcotest.test_case "drain completes in-flight requests" `Quick
      test_drain_completes_inflight;
    Alcotest.test_case "drain sheds queued requests" `Quick
      test_drain_sheds_queued;
    Alcotest.test_case "chaos under load: structured errors only" `Quick
      test_chaos_structured_errors_only;
    Alcotest.test_case "oversized response becomes a structured error" `Quick
      test_oversized_response_structured;
    Alcotest.test_case "ad-hoc tenant creation is bounded" `Quick
      test_tenant_registry_bounded;
    Alcotest.test_case "arrivals cannot overtake queued requests" `Quick
      test_arrivals_do_not_overtake_queue;
    Alcotest.test_case "tenant config parsing" `Quick
      test_tenant_config_errors;
    Alcotest.test_case "metrics count requests with nothing enabled" `Quick
      test_metrics_always_counted;
    Alcotest.test_case "health and metrics probes create no tenant" `Quick
      test_probes_create_no_tenant;
  ]
