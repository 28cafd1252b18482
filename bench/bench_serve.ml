(* Load benchmark for the serve subsystem: an open-loop generator with
   seeded arrivals drives a live in-process server through the full
   admission path (tenant quotas -> bounded queue -> execution pool),
   with chaos injection enabled on the heaviest tenant.

   Gates (deterministic, any host):

   - zero escaped exceptions: every one of the >= 500 chaos-enabled
     requests (and all others) yields a well-formed response whose
     error class, if any, is a known structured class;
   - admission control sheds: with every execution slot pinned and the
     queue full, exactly (extra - max_queue) requests come back as
     structured 'overloaded' errors — never blocked forever, never an
     exception;
   - served results are bit-identical to direct Database.exec for every
     admitted non-chaos query (digest comparison);
   - the Table 2 plan counters stay exact (520/226/163/69/42/18).

   The suite also gates its own accounting: some requests were
   admitted, every saturation-burst request was either shed or
   completed, and p99 >= p50.

   Wall-clock observables (p50/p99 latency, saturation throughput,
   organic shed rate) are recorded as advisory data; no gate reads
   them.  The baselined work cell mix@serial-reference is scored by a
   serial reference pass over the same seeded query mix — fully
   deterministic for its fixed seed, 11.
   SJOS_BENCH_REQS sets the open-loop requests (default 640, min 500);
   SJOS_BENCH_SCALE the document scale (default 0.2).

   Run with: dune exec bench/main.exe -- serve *)

open Sjos_engine
module Json = Sjos_obs.Json
module Work = Sjos_obs.Work
module Clock = Sjos_obs.Clock
module Server = Sjos_serve.Server
module Tenant = Sjos_serve.Tenant
module Admission = Sjos_serve.Admission
module Error = Sjos_guard.Error

(* The arrival/mix seed bench/baseline/serve.json pins. *)
let seed = 11
let total_requests = Harness.reqs
let scale = Harness.scale ~default:0.2

(* splitmix64 for the arrival process and request mix *)
let rng_state = ref (Int64.of_int (0x9E3779B9 + seed))

let rand64 () =
  rng_state := Int64.add !rng_state 0x9E3779B97F4A7C15L;
  let z = !rng_state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_int n = Int64.to_int (Int64.rem (Int64.logand (rand64 ()) Int64.max_int) (Int64.of_int n))
let rand_float () = float_of_int (rand_int 1_000_000) /. 1_000_000.0

(* ---------- fixtures ---------- *)

let pat = Sjos_pattern.Parse.pattern

let patterns =
  [|
    "manager(//employee(/name))";
    "manager(/department(/name))";
    "employee(/name)";
    "manager(//department)";
  |]

(* hot tenant dominates and carries the chaos load; cold tenants arrive
   rarely (plan-cache cold paths); greedy is rate-limited hard so the
   token bucket sheds organically under load *)
type slot = { tenant : string; pattern : string; chaos : bool }

let mix_slot () =
  let r = rand_int 100 in
  if r < 80 then
    (* faults are pure in (seed, fingerprint), so pattern variety is what
       spreads the chaotic tenant across fault kinds and successes *)
    { tenant = "chaotic";
      pattern = patterns.(rand_int (Array.length patterns));
      chaos = true }
  else if r < 90 then
    { tenant = "hot"; pattern = patterns.(rand_int (Array.length patterns)); chaos = false }
  else if r < 96 then
    {
      tenant = Printf.sprintf "cold_%d" (rand_int 4);
      pattern = patterns.(rand_int (Array.length patterns));
      chaos = false;
    }
  else { tenant = "greedy"; pattern = patterns.(0); chaos = false }

let tenant_config =
  Printf.sprintf
    {|{"tenants":
        {"chaotic": {"chaos_seed": %d},
         "hot":     {},
         "greedy":  {"rate_per_sec": 40, "burst": 2}}}|}
    seed

let max_active = 4
let max_queue = 8

let make_server db =
  let tenants =
    match
      Result.bind (Json.of_string tenant_config) Tenant.registry_of_json
    with
    | Ok r -> r
    | Error msg -> failwith ("tenant config: " ^ msg)
  in
  let config = { Server.default_config with max_active; max_queue } in
  Server.create ~config ~tenants db

let exec_req slot id =
  Json.Obj
    [
      ("op", Json.Str "exec");
      ("id", Json.Int id);
      ("tenant", Json.Str slot.tenant);
      ("pattern", Json.Str slot.pattern);
    ]

let ok_of j =
  match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let error_class j =
  match Option.bind (Json.member "error" j) (Json.member "class") with
  | Some (Json.Str c) -> Some c
  | _ -> None

let str_field j k =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

(* ---------- percentiles ---------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let run () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  rng_state := Int64.of_int (0x9E3779B9 + seed);
  Printf.printf
    "serve load bench: seed %d, %d open-loop requests, scale %.2f\n" seed
    total_requests scale;
  let size = max 1000 (int_of_float (5000.0 *. scale *. 5.0)) in
  let doc = Sjos_datagen.Pers.generate ~seed:7 ~target_nodes:size () in
  let db = Database.of_document doc in
  Database.warm db;
  let srv = make_server db in

  (* direct reference digests, one per pattern, before any load *)
  let reference =
    Array.map
      (fun pattern ->
        let run = Database.run db (pat pattern) in
        ( pattern,
          Server.result_digest run.Database.exec.Sjos_exec.Executor.tuples ))
      patterns
  in
  let digest_for pattern =
    snd (Array.find_opt (fun (p, _) -> String.equal p pattern) reference
         |> Option.get)
  in

  (* the request schedule: seeded mix and seeded exponential-ish gaps
     around a 1.5 ms mean — fast enough to stress the queue, slow
     enough that most requests admit *)
  let schedule =
    Array.init total_requests (fun i ->
        let gap = -.1.5e-3 *. log (1.0 -. (0.999 *. rand_float ())) in
        (i, mix_slot (), gap))
  in
  let chaos_requests =
    Array.fold_left
      (fun acc (_, s, _) -> if s.chaos then acc + 1 else acc)
      0 schedule
  in

  (* ---------- phase 1: open loop ---------- *)
  let responses = Array.make total_requests Json.Null in
  let latencies_ns = Array.make total_requests 0L in
  let escaped = Atomic.make 0 in
  let threads = ref [] in
  let t_start = Clock.now_ns () in
  Array.iter
    (fun (i, slot, gap) ->
      Thread.delay gap;
      let th =
        Thread.create
          (fun () ->
            let t0 = Clock.now_ns () in
            (try responses.(i) <- Server.handle_request srv (exec_req slot i)
             with _ -> Atomic.incr escaped);
            latencies_ns.(i) <- Int64.sub (Clock.now_ns ()) t0)
          ()
      in
      threads := th :: !threads)
    schedule;
  List.iter Thread.join !threads;
  let open_loop_seconds = Clock.elapsed_seconds ~since:t_start in

  (* classify *)
  let known = Error.all_class_names in
  let admitted = ref 0
  and shed = ref 0
  and failed = ref 0
  and degraded = ref 0
  and malformed = ref 0
  and unknown_class = ref 0
  and digest_mismatches = ref 0 in
  Array.iteri
    (fun i resp ->
      let _, slot, _ = schedule.(i) in
      match Json.member "ok" resp with
      | Some (Json.Bool true) ->
          incr admitted;
          (match str_field resp "degraded_from" with
          | Some _ -> incr degraded
          | None -> ());
          if not slot.chaos then
            if str_field resp "digest" <> Some (digest_for slot.pattern) then
              incr digest_mismatches
      | Some (Json.Bool false) -> (
          match error_class resp with
          | Some "overloaded" -> incr shed
          | Some c when List.mem c known -> incr failed
          | Some _ | None -> incr unknown_class)
      | _ -> incr malformed)
    responses;
  let lat_ms =
    let l =
      Array.to_list latencies_ns
      |> List.filteri (fun i _ -> ok_of responses.(i))
      |> List.map (fun ns -> Int64.to_float ns /. 1e6)
      |> List.sort compare
    in
    Array.of_list l
  in
  let p50 = percentile lat_ms 0.50 and p99 = percentile lat_ms 0.99 in
  let throughput = float_of_int !admitted /. open_loop_seconds in
  let shed_rate = float_of_int !shed /. float_of_int total_requests in
  Printf.printf
    "open loop: %d admitted, %d shed (%.1f%%), %d structured failures, %d \
     degraded; p50 %.2f ms, p99 %.2f ms, %.0f q/s\n"
    !admitted !shed (shed_rate *. 100.0) !failed !degraded p50 p99 throughput;

  (* ---------- phase 2: forced saturation ---------- *)
  (* pin every execution slot, fill the queue, and verify the overflow
     sheds deterministically with structured overloaded errors *)
  let adm = Server.admission srv in
  let pinned = ref 0 in
  while Admission.try_acquire adm do incr pinned done;
  let extra = max_queue + 14 in
  let burst_responses = Array.make extra Json.Null in
  let burst_threads =
    Array.init extra (fun i ->
        Thread.create
          (fun () ->
            burst_responses.(i) <-
              Server.handle_request srv (exec_req { tenant = "hot"; pattern = patterns.(0); chaos = false } (100_000 + i)))
          ())
  in
  (* wait until every burst request is either queued or already shed *)
  let rec settle tries =
    let settled =
      Admission.queued adm
      + Array.fold_left
          (fun acc r -> if r == Json.Null then acc else acc + 1)
          0 burst_responses
    in
    if settled < extra && tries > 0 then begin
      Thread.delay 0.01;
      settle (tries - 1)
    end
  in
  settle 500;
  let queued_at_peak = Admission.queued adm in
  for _ = 1 to !pinned do Admission.release adm done;
  Array.iter Thread.join burst_threads;
  let burst_shed =
    Array.fold_left
      (fun acc r -> if error_class r = Some "overloaded" then acc + 1 else acc)
      0 burst_responses
  in
  let burst_ok =
    Array.fold_left (fun acc r -> if ok_of r then acc + 1 else acc) 0
      burst_responses
  in
  Printf.printf
    "saturation: %d slots pinned, %d queued at peak, %d/%d shed \
     (structured), %d completed after release\n"
    !pinned queued_at_peak burst_shed extra burst_ok;

  let server_escaped =
    let metrics =
      Server.handle_request srv (Json.Obj [ ("op", Json.Str "metrics") ])
    in
    Option.bind (Json.member "serve" metrics) (Json.member "escaped")
  in
  let zero_escaped =
    Atomic.get escaped = 0 && !malformed = 0 && !unknown_class = 0
    && server_escaped = Some (Json.Int 0)
  in
  let counters_exact = Harness.table2_exact () in

  (* ---------- serial reference pass for the baselined work score ---------- *)
  (* handler threads share one domain (and its Work accumulator), so the
     deterministic score comes from replaying the same seeded query
     multiset serially — bit-stable for a fixed seed *)
  let bytes0 = Gc.allocated_bytes () in
  let opts = Query_opts.make ~use_cache:false () in
  let work, outcome =
    Work.scoped (fun () ->
        Array.iter
          (fun (_, slot, _) ->
            if not slot.chaos then
              ignore (Database.run ~opts db (pat slot.pattern)))
          schedule)
  in
  let allocated = Gc.allocated_bytes () -. bytes0 in
  (match outcome with Ok () -> () | Error e -> raise e);

  Server.initiate_drain srv;
  Server.shutdown srv;

  {
    Harness.suite = "serve";
    meta =
      [
        ("seed", Json.Int seed);
        ("requests", Json.Int total_requests);
        ("scale", Json.Float scale);
      ];
    cells =
      [
        Harness.cell "mix@serial-reference" ~work ~alloc:allocated
          ~seconds:open_loop_seconds [];
        Harness.cell "open_loop"
          [
            ("requests", Json.Int total_requests);
            ("chaos_requests", Json.Int chaos_requests);
            ("admitted", Json.Int !admitted);
            ("shed", Json.Int !shed);
            ("structured_failures", Json.Int !failed);
            ("degraded", Json.Int !degraded);
            ("p50_ms", Json.Float p50);
            ("p99_ms", Json.Float p99);
            ("throughput_rps", Json.Float throughput);
            ("shed_rate", Json.Float shed_rate);
          ];
        Harness.int_cell "saturation"
          [
            ("pinned", !pinned);
            ("queued_at_peak", queued_at_peak);
            ("burst_requests", extra);
            ("burst_shed", burst_shed);
            ("burst_completed", burst_ok);
          ];
      ];
    gates =
      [
        ("zero_escaped", zero_escaped);
        ("some_admitted", !admitted > 0);
        (* exactly (extra - max_queue) structured overloaded errors *)
        ("sheds_structured", burst_shed = extra - max_queue);
        ("burst_accounted", burst_shed + burst_ok = extra);
        ("digests_exact", !digest_mismatches = 0);
        ("enough_chaos", chaos_requests >= 500);
        ("counters_exact", counters_exact);
        ("p99_at_least_p50", p99 >= p50);
      ];
  }
