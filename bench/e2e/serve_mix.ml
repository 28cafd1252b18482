(* serve-mix: an open loop from one generator thread over two Unix-socket
   connections to an in-process server running on its own domain.
   Arrivals are a seeded Poisson process stepping through the rates of
   [Spec.ladder]; each request is timed from when it was due, so a
   stalled server or a late generator shows up in the latency. *)

open Sjos_engine
open Common
module Server = Sjos_serve.Server
module Wire = Sjos_serve.Wire
module Plan_cache = Sjos_cache.Plan_cache
module Work = Sjos_obs.Work

type server = {
  domain : unit Domain.t;
  srv : Server.t;
  conns : Unix.file_descr array;
}

let connect path =
  let give_up = Int64.add (now ()) 10_000_000_000L in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Int64.compare (now ()) give_up < 0 ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let start o k (s : setup) =
  let db = snd (List.hd s.dbs) in
  let path = Filename.concat o.run_dir (Printf.sprintf "serve-%d.sock" k) in
  let cell = Atomic.make None in
  let domain =
    Domain.spawn (fun () ->
        let srv =
          Server.create
            ~config:{ Server.default_config with max_active = 2 }
            ~pool:Pool.serial db
        in
        Atomic.set cell (Some srv);
        Server.run srv ~socket_path:path)
  in
  let conns = Array.init 2 (fun _ -> connect path) in
  let rec srv () =
    match Atomic.get cell with Some s -> s | None -> Domain.cpu_relax (); srv ()
  in
  { domain; srv = srv (); conns }

let stop t =
  Server.initiate_drain t.srv;
  Array.iter Unix.close t.conns;
  Domain.join t.domain

let payload rid (c : Spec.cls) =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "exec"); ("id", Json.Int rid); ("pattern", Json.Str c.text) ])

type expect = { count : int; digest : string }

type answer = { good : bool; shed : bool; exec_s : float }

let judge expect rid j =
  let num k = Option.bind (Json.member k j) Json.number in
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  match Json.member "ok" j with
  | Some (Json.Bool true) ->
      {
        good =
          num "id" = Some (float_of_int rid)
          && num "matches" = Some (float_of_int expect.count)
          && str "digest" = Some expect.digest;
        shed = false;
        exec_s = Option.value (num "exec_seconds") ~default:0.0;
      }
  | _ ->
      let shed =
        match Option.bind (Json.member "error" j) (Json.member "class") with
        | Some (Json.Str "overloaded") -> true
        | _ -> false
      in
      { good = false; shed; exec_s = 0.0 }

let read_answer fd =
  match Wire.read_frame fd with
  | Wire.Frame j -> j
  | Wire.Eof -> failwith "server closed the connection"
  | Wire.Bad msg -> failwith ("bad frame from server: " ^ msg)

type req = {
  rid : int;
  cls : int;
  step : int;
  mutable due : int64;  (** offset from the window's start until it opens *)
  mutable sent : int64;
  mutable wrote : int64;
  mutable finished : int64;
  mutable answer : answer option;
}

(* Steps as (rate, start, end) in seconds from the window's start. *)
let steps seconds =
  let _, l =
    List.fold_left
      (fun (at, acc) (rate, share) ->
        let until = at +. (share *. seconds) in
        (until, (rate, at, until) :: acc))
      (0.0, []) Spec.ladder
  in
  Array.of_list (List.rev l)

let schedule o ~classes =
  let u = uniform (rng o.seed) in
  let reqs = ref [] and rid = ref 0 in
  Array.iteri
    (fun step (rate, from, until) ->
      let t = ref (from -. (log (1.0 -. u ()) /. rate)) in
      while !t < until do
        reqs :=
          {
            rid = !rid;
            cls = !rid mod classes;
            step;
            due = Int64.of_float (!t *. 1e9);
            sent = 0L;
            wrote = 0L;
            finished = 0L;
            answer = None;
          }
          :: !reqs;
        incr rid;
        t := !t -. (log (1.0 -. u ()) /. rate)
      done)
    (steps o.seconds);
  Array.of_list (List.rev !reqs)

(* The generator: one thread, [select] over both connections.  A due
   request goes to the least-loaded connection with room; with both full
   it waits in the backlog, still timed from its due time.  Nothing is
   sent after the window closes; what is in flight then is awaited. *)
let drive t ~classes ~expects sched ~t_end ~on_idle =
  let backlog = Queue.create () in
  let inflight = Array.map (fun _ -> Queue.create ()) t.conns in
  let next = ref 0 in
  let n = Array.length sched in
  let outstanding_max = ref 0 in
  let in_flight () = Array.fold_left (fun a q -> a + Queue.length q) 0 inflight in
  let give_up = Int64.add t_end 10_000_000_000L in
  let rec dispatch () =
    if not (Queue.is_empty backlog) then begin
      let best = ref (-1) in
      Array.iteri
        (fun c q ->
          if
            Queue.length q < Spec.max_outstanding
            && (!best < 0 || Queue.length q < Queue.length inflight.(!best))
          then best := c)
        inflight;
      if !best >= 0 then begin
        let r = Queue.pop backlog in
        r.sent <- now ();
        Wire.write_payload t.conns.(!best) (payload r.rid classes.(r.cls));
        r.wrote <- now ();
        Queue.push r inflight.(!best);
        outstanding_max := max !outstanding_max (in_flight ());
        dispatch ()
      end
    end
  in
  let receive c =
    let j = read_answer t.conns.(c) in
    let r = Queue.pop inflight.(c) in
    r.finished <- now ();
    r.answer <- Some (judge expects.(r.cls) r.rid j)
  in
  let rec loop () =
    let at = now () in
    let open_ = Int64.compare at t_end < 0 in
    if open_ then begin
      while !next < n && Int64.compare sched.(!next).due at <= 0 do
        Queue.push sched.(!next) backlog;
        incr next
      done;
      dispatch ();
      if Queue.is_empty backlog && in_flight () = 0 then
        on_idle ~until:(if !next < n then sched.(!next).due else t_end)
    end;
    if (open_ || in_flight () > 0) && Int64.compare at give_up < 0 then begin
      let wait_ns =
        if not open_ then 50_000_000L
        else if not (Queue.is_empty backlog) then 50_000_000L
        else
          let target = if !next < n then sched.(!next).due else t_end in
          Int64.max 0L (Int64.min 50_000_000L (Int64.sub target at))
      in
      let fds =
        List.filteri (fun c _ -> not (Queue.is_empty inflight.(c)))
          (Array.to_list t.conns)
      in
      let ready, _, _ =
        Wire.retry_intr (fun () ->
            Unix.select fds [] [] (Int64.to_float wait_ns /. 1e9))
      in
      Array.iteri (fun c fd -> if List.mem fd ready then receive c) t.conns;
      loop ()
    end
  in
  loop ();
  if in_flight () > 0 then failwith "server did not answer in-flight requests";
  !outstanding_max

(* Chrome trace events of answered round trips.  Requests overlap, and
   their start is a due time rather than a call on this thread's stack,
   so they are not [Sjos_obs.Trace] spans: each is a "request" span tiled
   by its queue, write and await parts, on one of eight tracks. *)
let chrome reqs =
  let base = List.fold_left (fun m r -> min m r.due) Int64.max_int reqs in
  let us ns = Int64.to_float (Int64.sub ns base) /. 1e3 in
  let event r name a b =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "X");
        ("ts", Json.Float (us a));
        ("dur", Json.Float (us b -. us a));
        ("pid", Json.Int 1);
        ("tid", Json.Int (1 + (r.rid mod 8)));
        ("args", Json.Obj [ ("req", Json.Int r.rid) ]);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.concat_map
             (fun r ->
               [
                 event r "request" r.due r.finished;
                 event r "serve.queue" r.due r.sent;
                 event r "serve.write" r.sent r.wrote;
                 event r "serve.await" r.wrote r.finished;
               ])
             reqs) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let run o =
  let classes = Array.of_list o.workload.Spec.classes in
  let n = Array.length classes in
  let s, t, setup_values = repeated_setup o ~start:(start o) ~stop in
  let db = snd (List.hd s.dbs) in
  (* references from direct execution: the server must return the same
     count and the same order-sensitive digest *)
  let correct = ref true in
  let expects =
    Array.map
      (fun (c : Spec.cls) ->
        let r = Database.run ~opts:warm_opts db (Parse.pattern c.text) in
        let tuples = r.Database.exec.Sjos_exec.Executor.tuples in
        if not (check_class o db c tuples) then correct := false;
        { count = Array.length tuples; digest = Server.result_digest tuples })
      classes
  in
  (* untimed warm-up: every class three times over the wire *)
  for round = 0 to 2 do
    Array.iteri
      (fun i c ->
        let fd = t.conns.(i mod 2) in
        let rid = -1 - (round * n) - i in
        Wire.write_payload fd (payload rid c);
        if not (judge expects.(i) rid (read_answer fd)).good then begin
          Printf.eprintf "%s: wrong answer during warm-up\n%!" c.Spec.id;
          correct := false
        end)
      classes
  done;
  let candidates = Array.map (fun c -> candidates_counted db c) classes in
  Gc.compact ();
  let cache0 = Plan_cache.stats (Database.plan_cache db) in
  let h = host () in
  let gc0 = gc_counts () in
  let sched = schedule o ~classes:n in
  let t0 = Int64.add (now ()) 1_000_000L in
  let t_end = Int64.add t0 (Int64.of_float (o.seconds *. 1e9)) in
  Array.iter (fun r -> r.due <- Int64.add t0 r.due) sched;
  let traced r = o.trace && r.rid mod 2 = 1 in
  let outstanding_max =
    drive t ~classes ~expects sched ~t_end ~on_idle:(calibrate_if_idle h)
  in
  let sent = List.filter (fun r -> r.sent <> 0L) (Array.to_list sched) in
  let gc = gc_values ~requests:(float_of_int (max 1 (List.length sent))) gc0 in
  let cache1 = Plan_cache.stats (Database.plan_cache db) in
  if h.samples = [] then calibrate h;
  let speed = speed h in
  stop t;
  dispose s;
  let good r = match r.answer with Some a -> a.good | None -> false in
  let failed = List.length (List.filter (fun r -> not (good r)) sent) in
  let latency r = ms_between r.due r.finished in
  let steps = steps o.seconds in
  let in_step k = List.filter (fun r -> r.step = k) (Array.to_list sched) in
  let first = in_step 0 in
  let lat pick =
    Stats.sorted
      (Array.of_list
         (List.filter_map (fun r -> if good r && pick r then Some (latency r) else None) first))
  in
  let untraced = lat (fun r -> not (traced r)) in
  (* a step meets the limit when its tail, with every unanswered or
     wrong request counted as infinitely late, is within it *)
  let meets k =
    let l =
      List.map (fun r -> if good r then latency r else infinity) (in_step k)
    in
    l <> []
    && Stats.percentile (Stats.sorted (Array.of_list l)) Spec.limit_percentile
       <= Spec.latency_limit_ms
  in
  let max_ok =
    Array.fold_left max 0.0
      (Array.mapi (fun k (rate, _, _) -> if meets k then rate else 0.0) steps)
  in
  let last = Array.length steps - 1 in
  let _, from, until = steps.(last) in
  let completed_in_last =
    List.length
      (List.filter
         (fun r ->
           good r
           && Int64.compare r.finished (Int64.add t0 (Int64.of_float (from *. 1e9))) >= 0
           && Int64.compare r.finished (Int64.add t0 (Int64.of_float (until *. 1e9))) < 0)
         sent)
  in
  let exec_s r = match r.answer with Some a -> a.exec_s | None -> 0.0 in
  (* A traced round trip's three spans (queue, write, await) tile it, so
     nothing is unattributed; the server's execution, reported in the
     response, is carved out of the await. *)
  let first_traced = List.filter (fun r -> good r && traced r) first in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 first_traced in
  let rtt_total = sum latency in
  let exec_total = sum (fun r -> exec_s r *. 1000.0) in
  let share x = if rtt_total = 0.0 then 0.0 else x /. rtt_total in
  let p50 = Stats.percentile untraced 0.5 in
  let p50_traced = Stats.percentile (lat traced) 0.5 in
  let hits = cache1.Plan_cache.hits - cache0.Plan_cache.hits in
  let lookups = hits + cache1.misses - cache0.misses in
  let values =
    setup_values
    @ [
        (* set by the generator while the server keeps up, so not
           rescaled to the reference speed *)
        ( "throughput_qps",
          float_of_int completed_in_last /. (until -. from) );
        ("latency_p50_ms", p50 *. speed);
        ("wall.throughput_qps", float_of_int completed_in_last /. (until -. from));
        ("wall.latency_p50_ms", p50);
        ("host.speed", speed);
        ("latency_p90_ms", Stats.percentile untraced 0.9);
        ("peak_rss_mb", peak_rss_mb ());
        ("latency_tail_ms", tail untraced);
        ("exec.share", share exec_total);
        ("serve.share", share (rtt_total -. exec_total));
        ( "exec.execute_ms",
          1000.0
          *. Stats.median
               (Array.of_list
                  (List.filter_map
                     (fun r -> if good r then Some (exec_s r) else None)
                     first)) );
        ( "histogram.candidates_counted",
          Stats.median (Array.of_list (List.map (fun r -> candidates.(r.cls)) sent)) );
        ( "cache.hit_ratio",
          if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups );
        ( "cache.evictions",
          float_of_int (cache1.evictions - cache0.evictions) );
        ("serve.max_ok_rate_qps", max_ok);
        ("serve.outstanding_max", float_of_int outstanding_max);
        ( "serve.late_sends",
          float_of_int
            (List.length
               (List.filter
                  (fun r -> r.sent <> 0L && ms_between r.due r.sent > 1.0)
                  first)) );
        ( "serve.shed",
          float_of_int
            (List.length
               (List.filter
                  (fun r ->
                    match r.answer with Some a -> a.shed | None -> false)
                  sent)) );
        ( "trace.overhead_pct",
          if p50 = 0.0 then 0.0 else 100.0 *. (p50_traced -. p50) /. p50 );
      ]
    @ gc
    (* layers that run inside the server, out of the benchmark's sight *)
    @ zeros
        [
          "pattern.share"; "histogram.share"; "core.share"; "cache.share";
          "exec.scan_share"; "exec.join_share"; "exec.sort_share";
          "core.plans_considered"; "core.expansions"; "exec.comparisons";
          "exec.stack_ops"; "exec.sorted_items"; "exec.io_items";
          "exec.items_skipped"; "exec.rows_per_scanned"; "storage.page_misses";
          "storage.page_touches"; "storage.pool_hit_ratio"; "storage.evictions";
          "trace.unattributed_pct";
        ]
  in
  if o.trace then write_trace o (chrome (List.filter traced sent));
  {
    correct = !correct && failed = 0;
    attempted = List.length sent;
    failed;
    values;
  }
