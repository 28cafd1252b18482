(* The multicore layer, tested two ways.

   Differential: the parallel paths — sharded Stack-Tree kernels, the
   executor's pool plumbing, the workload fan-out — must produce
   bit-identical tuples, orderings and work counts (including
   [items_skipped]) to their serial runs, on randomized documents and
   for every pool size.

   Regression: each shared-state fix (Lru/Plan_cache locking, Budget
   atomic cancellation, Chaos per-query derivation) gets a test that
   fails on the pre-fix code: hammered counters must come out exact, cancellation must be visible across domains, and fault
   injection must not depend on query order or domain scheduling.

   Seeds derive from [Helpers.seed] (SJOS_SEED), so different runs can
   explore different documents while any failure stays replayable. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_exec
open Sjos_engine
module Pool = Sjos_par.Pool
module Lru = Sjos_cache.Lru
module Budget = Sjos_guard.Budget
module Chaos = Sjos_guard.Chaos
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---------- the pool itself ---------- *)

let test_pool_basics () =
  Helpers.with_pool 4 @@ fun p ->
  check ci "size" 4 (Pool.size p);
  let r = Pool.run p 100 (fun i -> (i * i) + 1) in
  Array.iteri (fun i v -> check ci "result order" ((i * i) + 1) v) r;
  check ci "empty batch" 0 (Array.length (Pool.run p 0 (fun i -> i)));
  (* nested run executes inline instead of deadlocking the fixed pool *)
  let nested =
    Pool.run p 4 (fun i ->
        Array.fold_left ( + ) 0 (Pool.run p 5 (fun j -> (10 * i) + j)))
  in
  Array.iteri (fun i v -> check ci "nested sum" ((50 * i) + 10) v) nested;
  let s = Pool.run Pool.serial 7 (fun i -> i * 3) in
  Array.iteri (fun i v -> check ci "serial pool" (i * 3) v) s

exception Boom of int

let test_pool_exceptions () =
  Helpers.with_pool 3 @@ fun p ->
  let ran = Atomic.make 0 in
  (match
     Pool.run p 8 (fun i ->
         Atomic.incr ran;
         if i >= 3 then raise (Boom i);
         i)
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i -> check ci "lowest-index exception wins" 3 i);
  check ci "all tasks still ran" 8 (Atomic.get ran)

let test_pool_shutdown () =
  let p = Pool.create ~domains:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  let r = Pool.run p 5 (fun i -> i + 1) in
  Array.iteri (fun i v -> check ci "run after shutdown is serial" (i + 1) v) r

let test_default_pool () =
  (* the default pool is env-sized and process-wide; whatever its size,
     it must run correctly *)
  let p = Pool.get_default () in
  check cb "default size >= 1" true (Pool.size p >= 1);
  let r = Pool.run p 9 (fun i -> i * 7) in
  Array.iteri (fun i v -> check ci "default pool result" (i * 7) v) r

(* ---------- sharded kernels: differential vs. serial ---------- *)

let join_with ?pool ~doc ~idx ~atag ~dtag ~axis ~algo () =
  let work = Work.zero () in
  let anc = Helpers.scan idx atag 0 2 ~work in
  let desc = Helpers.scan idx dtag 1 2 ~work in
  let out =
    Stack_tree.join ?pool ~par_min_rows:0 ~work ~doc ~axis ~algo
      ~anc:(anc, 0) ~desc:(desc, 1) ()
  in
  (out, work)

let test_kernel_shard_differential () =
  [ 2; 4 ]
  |> List.iter @@ fun domains ->
     Helpers.with_pool domains @@ fun pool ->
     List.iter
       (fun (name, doc) ->
         let idx = Element_index.build doc in
         let tags = Array.of_list (Document.tags doc) in
         let rng = Sjos_datagen.Rng.create (Helpers.seed + 31 + domains) in
         for case = 0 to 11 do
           let atag = tags.(Sjos_datagen.Rng.int rng (Array.length tags)) in
           let dtag =
             (* every fourth case is a self-join: the equal-start edge
                (same node on both sides) exercises the shard boundary *)
             if case mod 4 = 0 then atag
             else tags.(Sjos_datagen.Rng.int rng (Array.length tags))
           in
           List.iter
             (fun axis ->
               List.iter
                 (fun algo ->
                   let msg =
                     Printf.sprintf "%dd %s %s->%s %s/%s" domains name atag
                       dtag
                       (match axis with Axes.Child -> "child" | _ -> "desc")
                       (match algo with
                       | Plan.Stack_tree_desc -> "STJ-D"
                       | Plan.Stack_tree_anc -> "STJ-A")
                   in
                   let serial, sm =
                     join_with ~doc ~idx ~atag ~dtag ~axis ~algo ()
                   in
                   let par, pm =
                     join_with ~pool ~doc ~idx ~atag ~dtag ~axis ~algo ()
                   in
                   Helpers.check_same_tuple_seq msg serial par;
                   Helpers.check_work_equal msg sm pm)
                 [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ])
             [ Axes.Descendant; Axes.Child ]
         done)
       (Helpers.docs_under_test (Helpers.seed + domains))

(* ---------- whole-workload differential ---------- *)

let workload_dbs () =
  let size = function
    | Workload.Mbench -> 12_000
    | Workload.Dblp -> 10_000
    | Workload.Pers -> 6_000
  in
  let dbs =
    List.map
      (fun ds -> (ds, Database.of_document (Workload.generate ~size:(size ds) ds)))
      Workload.all_datasets
  in
  fun ds -> List.assoc ds dbs

let test_workload_differential () =
  let db_for = workload_dbs () in
  let opts = Query_opts.make ~use_cache:false () in
  let reference = Workload.run_all ~opts ~pool:Pool.serial db_for in
  [ 2; 4 ]
  |> List.iter @@ fun domains ->
     Helpers.with_pool domains @@ fun pool ->
     let par = Workload.run_all ~opts ~pool db_for in
     check ci "same query count" (Array.length reference) (Array.length par);
     Array.iteri
       (fun i ((q : Workload.query), (r : Database.query_run)) ->
         let q', r' = par.(i) in
         let msg = Printf.sprintf "%dd %s" domains q.Workload.id in
         check Alcotest.string (msg ^ ": order") q.Workload.id q'.Workload.id;
         Helpers.check_work_equal (msg ^ ": search")
           r.Database.opt.Sjos_core.Optimizer.work
           r'.Database.opt.Sjos_core.Optimizer.work;
         Helpers.check_same_tuple_seq msg r.Database.exec.Executor.tuples
           r'.Database.exec.Executor.tuples;
         Helpers.check_work_equal msg r.Database.exec.Executor.work
           r'.Database.exec.Executor.work)
       reference

(* ---------- regression: Lru / Plan_cache under concurrency ---------- *)

let test_lru_concurrent () =
  Helpers.with_pool 2 @@ fun p ->
  let lru = Lru.create ~capacity:16 in
  ignore
    (Pool.run p 2 (fun d ->
         for k = 0 to 5_000 do
           let key = string_of_int ((k * ((7 * d) + 3)) mod 64) in
           (match Lru.find lru key with
           | Some _ -> ()
           | None -> ignore (Lru.add lru key (k, d)))
         done));
  let len = Lru.length lru in
  check cb "within capacity" true (len <= 16);
  (* push every survivor out with fresh keys: the recency list must hand
     back each of the [len] entries the table holds exactly once *)
  let evicted =
    List.filter_map
      (fun i -> Lru.add lru ("fresh" ^ string_of_int i) (i, -1))
      (List.init 16 Fun.id)
  in
  check ci "one eviction per entry" len (List.length evicted);
  check ci "keys unique" len (List.length (List.sort_uniq compare evicted));
  check cb "no fresh key evicted" true
    (List.for_all
       (fun k -> not (String.starts_with ~prefix:"fresh" k))
       evicted);
  check ci "full of fresh keys" 16 (Lru.length lru)

let test_plan_cache_concurrent () =
  Helpers.with_pool 2 @@ fun p ->
  let pc = Sjos_cache.Plan_cache.create () in
  let finds =
    Pool.run p 2 (fun d ->
        let n = ref 0 in
        for k = 0 to 4_000 do
          (* 600 keys against 256 slots keep the cache evicting *)
          let key = string_of_int ((k * ((5 * d) + 1)) mod 600) in
          incr n;
          (match Sjos_cache.Plan_cache.find pc key with
          | Some _ -> ()
          | None -> Sjos_cache.Plan_cache.add pc key k)
        done;
        !n)
  in
  let total_finds = Array.fold_left ( + ) 0 finds in
  let s = Sjos_cache.Plan_cache.stats pc in
  check ci "hits + misses = finds" total_finds
    (s.Sjos_cache.Plan_cache.hits + s.Sjos_cache.Plan_cache.misses);
  check cb "evictions happened" true (s.Sjos_cache.Plan_cache.evictions > 0);
  check ci "entries fill the capacity" s.Sjos_cache.Plan_cache.capacity
    s.Sjos_cache.Plan_cache.entries

(* ---------- regression: Budget cancellation across domains ---------- *)

let test_budget_cross_domain_cancel () =
  (* an explicit flag: [make ()] with no ceilings normalizes to the
     uncancellable [unlimited] *)
  let b = Budget.make ~cancelled:(Atomic.make false) () in
  Helpers.with_pool 2 @@ fun p ->
  let r =
    Pool.run p 2 (fun i ->
        if i = 0 then begin
          Budget.cancel b;
          0
        end
        else begin
          (* must observe the other domain's write; pre-fix (a plain
             bool field) nothing forces it to become visible.  Bounded
             so a broken cancel fails the test instead of hanging it. *)
          let t0 = Sjos_obs.Clock.now_ns () in
          while
            Budget.poll b <> Some Budget.Cancelled
            && Sjos_obs.Clock.elapsed_seconds ~since:t0 < 30.0
          do
            Domain.cpu_relax ()
          done;
          if Budget.poll b = Some Budget.Cancelled then 1 else -1
        end)
  in
  check ci "worker saw the cancel" 1 r.(1);
  check cb "cancel is sticky" true (Budget.poll b = Some Budget.Cancelled);
  match Budget.cancel Budget.unlimited with
  | () -> Alcotest.fail "cancelling the unlimited budget must be rejected"
  | exception Invalid_argument _ -> ()

let test_budget_cancel_aborts_execution () =
  let db_for = workload_dbs () in
  let q = Workload.q_pers_3_d in
  let db = db_for q.Workload.dataset in
  Helpers.with_pool 2 @@ fun pool ->
  let b = Budget.make ~cancelled:(Atomic.make false) () in
  let opts = Query_opts.make ~use_cache:false ~budget:b ~pool () in
  let prep = Database.prepare ~opts db q.Workload.pattern in
  Budget.cancel b;
  match Database.exec prep with
  | _ -> Alcotest.fail "cancelled budget did not abort execution"
  | exception Budget.Exhausted { resource = Budget.Cancelled; _ } -> ()

(* ---------- regression: Chaos independent of order and scheduling ---------- *)

let chaos_faults = [ Chaos.Truncate_candidates; Chaos.Lie_cardinalities ]

(* Matches per query id, plus the shared injection total, for one parent
   chaos instance consumed by the given driver. *)
let chaos_run driver =
  let c = Chaos.create ~faults:chaos_faults ~seed:(Helpers.seed + 41) () in
  let opts = Query_opts.make ~chaos:c () in
  let outcomes = driver opts in
  (outcomes, Chaos.injected c)

let test_chaos_schedule_independent () =
  let db_for = workload_dbs () in
  let serial order opts =
    List.map
      (fun (q : Workload.query) ->
        let r = Database.run ~opts (db_for q.Workload.dataset) q.Workload.pattern in
        (q.Workload.id, Array.length r.Database.exec.Executor.tuples))
      order
    |> List.sort compare
  in
  let forward, inj_fwd = chaos_run (serial Workload.queries) in
  let backward, inj_bwd = chaos_run (serial (List.rev Workload.queries)) in
  let parallel, inj_par =
    chaos_run (fun opts ->
        Helpers.with_pool 4 @@ fun pool ->
        Workload.run_all ~opts ~pool db_for
        |> Array.to_list
        |> List.map (fun ((q : Workload.query), (r : Database.query_run)) ->
               (q.Workload.id, Array.length r.Database.exec.Executor.tuples))
        |> List.sort compare)
  in
  check cb "some faults actually fired" true (inj_fwd > 0);
  check ci "same injection total reversed" inj_fwd inj_bwd;
  check ci "same injection total parallel" inj_fwd inj_par;
  List.iter2
    (fun (id, m) (id', m') ->
      check Alcotest.string "query id" id id';
      check ci (id ^ ": matches independent of order") m m')
    forward backward;
  List.iter2
    (fun (id, m) (id', m') ->
      check Alcotest.string "query id" id id';
      check ci (id ^ ": matches independent of scheduling") m m')
    forward parallel

let test_chaos_derive_pure () =
  let c = Chaos.create ~faults:chaos_faults ~seed:(Helpers.seed + 43) () in
  let a1 = Chaos.derive c ~key:"fp-a" in
  (* drawing from one child must not perturb a sibling derived later *)
  ignore (Chaos.wrap_candidates a1 [||]);
  let b = Chaos.derive c ~key:"fp-b" in
  let a2 = Chaos.derive c ~key:"fp-a" in
  check ci "same key, same stream" (Chaos.seed a1) (Chaos.seed a2);
  check cb "distinct keys, distinct streams" true (Chaos.seed a1 <> Chaos.seed b)

(* ---------- execution scratch: never shared, always emptied ---------- *)

(* Every execution takes one scratch set from one process-wide free
   list, and its sharded joins record in that set's lanes.  Four threads
   on this domain and a two-domain pool run the workload queries at
   once over shared databases: even threads through [Workload.run], odd
   ones as whole [Executor.execute] runs of serially prepared plans.
   Every result must equal the serial one tuple for tuple, and the
   serial one the [Naive] oracle; the list may gain at most one set per
   run that could have held one at once (one per thread, plus one), and
   keep no buffer past [Scratch.max_kept].  A join stopped by its tuple
   ceiling leaves its buffers half written, and the same plan with no
   budget must still return every tuple.  A buffer longer than
   [Scratch.max_kept] is dropped when its set goes back. *)
let test_scratch_concurrent () =
  let db_for = workload_dbs () in
  let serial = Query_opts.make ~use_cache:false ~pool:Pool.serial () in
  let qs = Array.of_list Workload.queries in
  let nq = Array.length qs in
  let run opts (q : Workload.query) =
    (Workload.run ~opts (db_for q.Workload.dataset) q).Database.exec
      .Executor.tuples
  in
  let reference = Array.map (run serial) qs in
  Array.iteri
    (fun i (q : Workload.query) ->
      Helpers.check_same_matches
        (q.Workload.id ^ ": serial = naive")
        (Naive.matches
           (Database.index (db_for q.Workload.dataset))
           q.Workload.pattern)
        (Array.to_list reference.(i)))
    qs;
  let plan_of (q : Workload.query) =
    (Database.prepared_result
       (Database.prepare ~opts:serial (db_for q.Workload.dataset)
          q.Workload.pattern))
      .Sjos_core.Optimizer.plan
  in
  let plans = Array.map plan_of qs in
  let execute pool i =
    let q = qs.(i) in
    (Database.execute_plan ~pool (db_for q.Workload.dataset) q.Workload.pattern
       plans.(i))
      .Executor.tuples
  in
  let before = Scratch.free_sets () in
  let threads = 4 in
  let results = Array.make_matrix threads nq [||] in
  let failures = Atomic.make [] in
  Helpers.with_pool 2 (fun pool ->
      let opts = Query_opts.make ~use_cache:false ~pool () in
      List.init threads (fun t ->
          Thread.create
            (fun () ->
              try
                for k = 0 to nq - 1 do
                  let i = (k + (2 * t)) mod nq in
                  results.(t).(i) <-
                    (if t mod 2 = 0 then run opts qs.(i) else execute pool i)
                done
              with e ->
                let rec add () =
                  let l = Atomic.get failures in
                  if not (Atomic.compare_and_set failures l (e :: l)) then
                    add ()
                in
                add ())
            ())
      |> List.iter Thread.join);
  (match Atomic.get failures with
  | [] -> ()
  | e :: _ -> Alcotest.failf "a thread raised %s" (Printexc.to_string e));
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun i tuples ->
          Helpers.check_same_tuple_seq
            (Printf.sprintf "thread %d %s" t qs.(i).Workload.id)
            reference.(i) tuples)
        row)
    results;
  check cb "at most one new set per concurrent run" true
    (Scratch.free_sets () <= before + threads + 1);
  check cb "no kept buffer past max_kept after the runs" true
    (Scratch.longest_kept () <= Scratch.max_kept);
  (* a stopped join, then the same plan unbudgeted *)
  Array.iteri
    (fun i (q : Workload.query) ->
      let db = db_for q.Workload.dataset in
      let pat = q.Workload.pattern in
      let exec ?budget () =
        (Database.execute_plan ?budget ~pool:Pool.serial db pat plans.(i))
          .Executor.tuples
      in
      let limit = Array.length reference.(i) / 2 in
      if limit > 0 then begin
        (match exec ~budget:(Budget.make ~max_tuples:limit ()) () with
        | exception Budget.Exhausted _ -> ()
        | _ -> Alcotest.failf "%s: ceiling %d did not stop" q.Workload.id limit);
        Helpers.check_same_tuple_seq
          (q.Workload.id ^ ": after a stopped run")
          reference.(i) (exec ())
      end)
    qs;
  (* a sort whose keys outgrow the kept size gives them back *)
  let doc = Database.document (db_for Workload.Pers) in
  let rows = Scratch.max_kept + 1 in
  let ids = Array.init rows (fun r -> (r * 7919) mod Document.size doc) in
  Scratch.with_set (fun s ->
      ignore (Batch.sort s ~doc ~by:0 (Batch.of_ids s ~width:1 ~slot:0 ids)));
  check cb "no kept buffer past max_kept" true
    (Scratch.longest_kept () <= Scratch.max_kept)

let suite =
  [
    Alcotest.test_case "pool: results in index order" `Quick test_pool_basics;
    Alcotest.test_case "pool: deterministic exceptions" `Quick
      test_pool_exceptions;
    Alcotest.test_case "pool: shutdown is safe" `Quick test_pool_shutdown;
    Alcotest.test_case "pool: env-sized default" `Quick test_default_pool;
    Alcotest.test_case "sharded kernels = serial kernels (tuples + metrics)"
      `Quick test_kernel_shard_differential;
    Alcotest.test_case "parallel workload = serial workload" `Quick
      test_workload_differential;
    Alcotest.test_case "lru: invariants under contention" `Quick
      test_lru_concurrent;
    Alcotest.test_case "plan cache: counters agree with outcomes" `Quick
      test_plan_cache_concurrent;
    Alcotest.test_case "budget: cancellation visible across domains" `Quick
      test_budget_cross_domain_cancel;
    Alcotest.test_case "budget: cancel aborts a pooled execution" `Quick
      test_budget_cancel_aborts_execution;
    Alcotest.test_case "chaos: faults independent of order and scheduling"
      `Quick test_chaos_schedule_independent;
    Alcotest.test_case "chaos: derivation is pure and keyed" `Quick
      test_chaos_derive_pure;
    Alcotest.test_case "kernel scratch: threads and domains, stopped joins"
      `Quick test_scratch_concurrent;
  ]
