(* paper-cold, join-heavy and out-of-core: one client, each request sent
   when the previous one has been checked. *)

open Sjos_engine
open Common
module Optimizer = Sjos_core.Optimizer
module Fingerprint = Sjos_pattern.Fingerprint
module Pattern = Sjos_pattern.Pattern
module Plan = Sjos_plan.Plan
module Explain = Sjos_plan.Explain
module Executor = Sjos_exec.Executor
module Plan_cache = Sjos_cache.Plan_cache
module Pager = Sjos_storage.Pager
module Work = Sjos_obs.Work
module Trace = Sjos_obs.Trace

(* Estimation is lazy inside a provider: node counts are taken when it is
   created, histograms and edge selectivities on first use.  Asking for
   every edge's estimate here moves that work into the histogram span;
   the search would fill exactly these memo entries anyway. *)
let force_estimates pat (p : Sjos_plan.Costing.provider) =
  List.iter
    (fun (e : Pattern.edge) ->
      ignore (p.cluster_card ((1 lsl e.anc) lor (1 lsl e.desc))))
    (Pattern.edges pat)

(* One request, from pattern text to executed plan, inside a "request"
   span whose children are named [<layer>.<function>].  Untraced cold
   requests are what a user runs, [Database.prepare] with the plan cache
   off; traced ones walk the same layers one public call at a time so
   each gets its own span.  Warm requests go through the plan cache.
   With tracing off every span is a direct call. *)
let request kind ~traced db (c : Spec.cls) ~req =
  let sp = Trace.with_span in
  sp ~attrs:[ ("req", Json.Int req) ] "request" @@ fun () ->
  let pat = sp "pattern.parse" (fun () -> Parse.pattern c.text) in
  match kind with
  | Spec.Cold when traced ->
      ignore (sp "pattern.fingerprint" (fun () -> Fingerprint.fingerprint pat));
      let provider =
        sp "histogram.provider" (fun () ->
            let p = Database.provider db pat in
            force_estimates pat p;
            p)
      in
      let r =
        sp "core.optimize_e" (fun () ->
            match
              Optimizer.optimize_e ~factors:(Database.factors db) ~provider
                ~engine:Optimizer.Binary Optimizer.Dpp pat
            with
            | Ok r -> r
            | Error e -> Sjos_guard.Error.fail e)
      in
      sp "exec.execute" (fun () ->
          Database.execute_plan ~pool:Pool.serial db pat r.Optimizer.plan)
  | Spec.Cold -> (Database.exec (Database.prepare ~opts:cold_opts db pat)).exec
  | Spec.Warm | Spec.Serve ->
      let p = sp "cache.prepare" (fun () -> Database.prepare ~opts:warm_opts db pat) in
      (sp "exec.execute" (fun () -> Database.exec p)).Database.exec

(* Operator self time by kind, from the executor's own profile. *)
let rec split_profile (m : Explain.measured) (scan, join, sort) =
  let acc =
    match m.mplan with
    | Plan.Index_scan _ -> (scan +. m.seconds, join, sort)
    | Plan.Structural_join _ | Plan.Holistic _ -> (scan, join +. m.seconds, sort)
    | Plan.Sort _ -> (scan, join, sort +. m.seconds)
  in
  List.fold_left (fun acc i -> split_profile i acc) acc m.inputs

let zero_io = { Pager.accesses = 0; hits = 0; misses = 0; evictions = 0 }

let io db =
  Option.value (Column_store.io_stats (Database.store db)) ~default:zero_io

let io_diff (a : Pager.stats) (b : Pager.stats) =
  {
    Pager.accesses = b.accesses - a.accesses;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    evictions = b.evictions - a.evictions;
  }

let cache_totals dbs =
  List.fold_left
    (fun (h, m, e) (_, db) ->
      let s = Plan_cache.stats (Database.plan_cache db) in
      (h + s.Plan_cache.hits, m + s.misses, e + s.evictions))
    (0, 0, 0) dbs

type sample = {
  cls : int;
  traced : bool;
  ms : float;
  ok : bool;
  work : Work.t;
  io : Pager.stats;
  rows : int;
  exec_s : float;
  profile : float * float * float;  (** scan, join, sort seconds *)
}

(* The traced requests, read back from the recorded forest
   ([Trace.to_json]): each root is a "request" span, each child the
   benchmark's span around one layer call.  Spans the library opens inside
   a layer call (search levels, operators) nest under it and belong to
   that layer, so a layer's time is its span's whole duration.  The
   request's own self time, its duration minus what its children cover,
   is what no layer accounts for. *)
type traced_request = { seconds : float; layers : (string * float) list }

let traced_requests () =
  let secs j = Option.value ~default:0.0 (Option.bind (Json.member "seconds" j) Json.number) in
  let name j = match Json.member "name" j with Some (Json.Str s) -> s | _ -> "" in
  let children j =
    match Json.member "children" j with Some (Json.List l) -> l | _ -> []
  in
  match Trace.to_json () with
  | Json.List roots ->
      List.filter_map
        (fun r ->
          if name r <> "request" then None
          else
            Some
              {
                seconds = secs r;
                layers = List.map (fun c -> (name c, secs c)) (children r);
              })
        roots
  | _ -> []

let layer_of span_name =
  match String.index_opt span_name '.' with
  | Some i -> String.sub span_name 0 i
  | None -> span_name

(* Each layer's share of the traced requests' time; "request" is the
   unattributed self time of the roots. *)
let layer_shares reqs =
  let by_layer = Hashtbl.create 16 in
  let add l x =
    Hashtbl.replace by_layer l (x +. Option.value (Hashtbl.find_opt by_layer l) ~default:0.0)
  in
  let total = ref 0.0 in
  List.iter
    (fun r ->
      total := !total +. r.seconds;
      List.iter (fun (n, x) -> add (layer_of n) x) r.layers;
      add "request"
        (Float.max 0.0 (r.seconds -. List.fold_left (fun a (_, x) -> a +. x) 0.0 r.layers)))
    reqs;
  fun layer ->
    if !total = 0.0 then 0.0
    else Option.value (Hashtbl.find_opt by_layer layer) ~default:0.0 /. !total

let run o =
  let s, (), setup_values =
    repeated_setup o ~start:(fun _ _ -> ()) ~stop:(fun () -> ())
  in
  let kind = o.workload.Spec.kind in
  let classes = Array.of_list o.workload.Spec.classes in
  let n = Array.length classes in
  let db_of (c : Spec.cls) = List.assoc c.dataset s.dbs in
  (* untimed warm-up, three rounds; the first checks every class, the
     last takes the traced path if the run has one *)
  let correct = ref true in
  let expected = Array.make n (-1) in
  for round = 1 to 3 do
    Array.iteri
      (fun i c ->
        let r = request kind ~traced:(o.trace && round = 3) (db_of c) c ~req:(-1) in
        if round = 1 then begin
          expected.(i) <- Array.length r.Executor.tuples;
          if not (check_class o (db_of c) c r.Executor.tuples) then
            correct := false
        end)
      classes
  done;
  let candidates = Array.map (fun c -> candidates_counted (db_of c) c) classes in
  (* the window starts from the same heap state in every run: set-up and
     warm-up garbage is collected before, not during, the timing *)
  Gc.compact ();
  let next = rng o.seed in
  let order = Array.init n Fun.id in
  let samples = ref [] in
  Trace.reset ();
  let cache0 = cache_totals s.dbs in
  let io0 = List.map (fun (_, db) -> io db) s.dbs in
  let h = host () in
  let gc0 = gc_counts () in
  let t_start = now () in
  let deadline = Int64.add t_start (Int64.of_float (o.seconds *. 1e9)) in
  let i = ref 0 in
  (* at least two cycles, so a short run still has traced and untraced
     requests of every class *)
  while Int64.compare (now ()) deadline < 0 || !i < 2 * n do
    calibrate_every h;
    if !i mod n = 0 then shuffle next order;
    (* whole cycles alternate, so traced and untraced requests see the
       same class mix *)
    let traced = o.trace && !i / n mod 2 = 1 in
    let ci = order.(!i mod n) in
    let c = classes.(ci) in
    let db = db_of c in
    let io_before = io db in
    Trace.set_enabled traced;
    let t0 = now () in
    let work, result = Work.scoped (fun () -> request kind ~traced db c ~req:!i) in
    let t1 = now () in
    Trace.set_enabled false;
    let sample =
      match result with
      | Ok r ->
          let rows = Array.length r.Executor.tuples in
          if rows <> expected.(ci) then
            Printf.eprintf "%s: request %d returned %d matches, expected %d\n%!"
              c.id !i rows expected.(ci);
          {
            cls = ci;
            traced;
            ms = ms_between t0 t1;
            ok = rows = expected.(ci);
            work;
            io = io_diff io_before (io db);
            rows;
            exec_s = r.Executor.seconds;
            profile = split_profile r.Executor.profile (0.0, 0.0, 0.0);
          }
      | Error e ->
          Printf.eprintf "%s: request %d failed: %s\n%!" c.id !i
            (Printexc.to_string e);
          {
            cls = ci;
            traced;
            ms = ms_between t0 t1;
            ok = false;
            work;
            io = zero_io;
            rows = 0;
            exec_s = 0.0;
            profile = (0.0, 0.0, 0.0);
          }
    in
    samples := sample :: !samples;
    incr i
  done;
  let elapsed =
    Clock.elapsed_seconds ~since:t_start -. Clock.seconds_of_ns h.spent_ns
  in
  let speed = speed h in
  let gc = gc_values ~requests:(float_of_int !i) gc0 in
  let hits1, misses1, evict1 = cache_totals s.dbs in
  let hits0, misses0, evict0 = cache0 in
  let pool =
    List.fold_left2
      (fun acc (_, db) before ->
        let d = io_diff before (io db) in
        (fst acc + d.hits, snd acc + d.accesses))
      (0, 0) s.dbs io0
  in
  let all = Array.of_list (List.rev !samples) in
  let good = List.filter (fun x -> x.ok) (Array.to_list all) in
  let failed = Array.length all - List.length good in
  let latencies traced =
    Stats.sorted
      (Array.of_list
         (List.filter_map (fun x -> if x.traced = traced then Some x.ms else None) good))
  in
  let untraced = latencies false in
  let med f = Stats.median (Array.of_list (List.map f good)) in
  let share part whole = if whole = 0.0 then 0.0 else part /. whole in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 good in
  let exec_total = sum (fun x -> x.exec_s) in
  let reqs = traced_requests () in
  let layer = layer_shares reqs in
  let exec_ms =
    Stats.median
      (Array.of_list
         (List.concat_map
            (fun r ->
              List.filter_map
                (fun (n, x) -> if n = "exec.execute" then Some (x *. 1e3) else None)
                r.layers)
            reqs))
  in
  let p50_traced = Stats.percentile (latencies true) 0.5 in
  let p50 = Stats.percentile untraced 0.5 in
  let values =
    setup_values
    @ [
        ("throughput_qps", float_of_int (List.length good) /. elapsed /. speed);
        ("latency_p50_ms", p50 *. speed);
        ("wall.throughput_qps", float_of_int (List.length good) /. elapsed);
        ("wall.latency_p50_ms", p50);
        ("host.speed", speed);
        ("latency_p90_ms", Stats.percentile untraced 0.9);
        ("peak_rss_mb", peak_rss_mb ());
        ("latency_tail_ms", tail untraced);
        ("pattern.share", layer "pattern");
        ("histogram.share", layer "histogram");
        ("core.share", layer "core");
        ("cache.share", layer "cache");
        ("exec.share", layer "exec");
        ("exec.execute_ms", exec_ms);
        ("exec.scan_share", share (sum (fun x -> let a, _, _ = x.profile in a)) exec_total);
        ("exec.join_share", share (sum (fun x -> let _, b, _ = x.profile in b)) exec_total);
        ("exec.sort_share", share (sum (fun x -> let _, _, c = x.profile in c)) exec_total);
        ("histogram.candidates_counted", med (fun x -> candidates.(x.cls)));
        ("core.plans_considered", med (fun x -> float_of_int x.work.plans_considered));
        ("core.expansions", med (fun x -> float_of_int x.work.expansions));
        ("cache.hit_ratio", ratio (hits1 - hits0) (hits1 - hits0 + misses1 - misses0));
        ("cache.evictions", float_of_int (evict1 - evict0));
        ("exec.comparisons", med (fun x -> float_of_int x.work.comparisons));
        ("exec.stack_ops", med (fun x -> float_of_int x.work.stack_ops));
        ("exec.sorted_items", med (fun x -> float_of_int x.work.sorted_items));
        ("exec.io_items", med (fun x -> float_of_int x.work.io_items));
        ("exec.items_skipped", med (fun x -> float_of_int x.work.items_skipped));
        ( "exec.rows_per_scanned",
          med (fun x -> ratio x.rows x.work.candidates_scanned) );
        ("storage.page_misses", med (fun x -> float_of_int x.io.misses));
        ("storage.page_touches", med (fun x -> float_of_int x.work.page_touches));
        ("storage.pool_hit_ratio", ratio (fst pool) (snd pool));
        ("storage.evictions", med (fun x -> float_of_int x.io.evictions));
        ("trace.overhead_pct", 100.0 *. share (p50_traced -. p50) p50);
        ("trace.unattributed_pct", 100.0 *. layer "request");
      ]
    @ gc
    @ zeros
        [
          "serve.share"; "serve.max_ok_rate_qps"; "serve.outstanding_max";
          "serve.late_sends"; "serve.shed";
        ]
  in
  if o.trace then write_trace o (Trace.to_chrome_json ());
  dispose s;
  {
    correct = !correct && failed = 0;
    attempted = Array.length all;
    failed;
    values;
  }
