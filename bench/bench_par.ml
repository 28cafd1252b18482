(* Parallel-vs-serial benchmark for the multicore query engine.

   Runs the full eight-query workload (Workload.run_all: databases
   built and warmed up front, queries fanned out across a domain pool,
   large joins sharded inside the pool) serially and on pools of 1, 2
   and 4 domains.

   The gate is fully deterministic and enforced on ANY host, 1-core CI
   runners included:

   - every parallel run must be bit-identical to the serial reference —
     same tuples, same order, same executor work including
     items_skipped;
   - the Table 2 plan-space counters must come out exact
     (520/226/163/69/42/18);
   - the deterministic work counters must be bit-identical across pool
     sizes — sharding a join across domains must neither duplicate nor
     drop a single unit of work;
   - at least one join must shard, and the row-balance ratio
     (largest shard x shard count / total rows) must stay under 3.0 —
     a skewed cut would starve the pool even on a machine where
     wall-clock can't show it.  Below scale 0.5 no join is big enough
     to shard, so sharding_active fails there.

   Wall-clock speedups are still measured and recorded as advisory
   data; no gate reads them.  The perf-history entries are
   workload@serial and workload@<domains>.

   SJOS_BENCH_SCALE defaults to 0.5 (1.0 = full); SJOS_BENCH_REPS sets
   the timed repetitions per pool size (default 5).

   Run with: dune exec bench/main.exe -- par *)

open Sjos_engine
open Sjos_exec
module Pool = Sjos_par.Pool
module Work = Sjos_obs.Work
module Registry = Sjos_obs.Registry
module Json = Sjos_obs.Json

let scale = Harness.scale ~default:0.5
let reps = Harness.reps
let db_for ds = Harness.db ~size:(Harness.scaled scale (Workload.default_size ds)) ds

(* Cold options: every timed run re-optimizes and re-executes the same
   work, and plans_considered stays comparable across runs. *)
let opts = Query_opts.make ~use_cache:false ()

let run_workload pool = Workload.run_all ~opts ~pool db_for

let workload_identical reference run =
  Array.length reference = Array.length run
  && Array.for_all2
       (fun ((q : Workload.query), (a : Database.query_run))
            ((q' : Workload.query), (b : Database.query_run)) ->
         String.equal q.Workload.id q'.Workload.id
         && Harness.tuples_equal a.Database.exec.Executor.tuples
              b.Database.exec.Executor.tuples
         && Work.equal a.Database.exec.Executor.work
              b.Database.exec.Executor.work)
       reference run

let time_best pool =
  let best = ref infinity in
  let last = ref [||] in
  for _ = 1 to reps do
    Gc.compact ();
    let t0 = Sjos_obs.Clock.now_ns () in
    last := run_workload pool;
    let s = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
    if s < !best then best := s
  done;
  (!best, !last)

(* One dedicated accounting run per pool size, outside the timing loop:
   the scoped accumulator captures the workload's deterministic work
   (every shard's delta absorbed at the pool barrier), and the registry
   shard-balance counters are snapshotted around the run.  Allocation is
   measured only for the serial run — Gc.allocated_bytes is per-domain,
   so a parallel figure would depend on scheduling. *)
type accounting = {
  work : Work.t;
  sharded_joins : int;
  shard_rows_total : int;
  shard_rows_max_weighted : int;
  allocated : float;
}

let account pool ~measure_alloc =
  Registry.set_enabled true;
  let joins0 = Registry.counter_value (Registry.counter "par.sharded_joins") in
  let total0 =
    Registry.counter_value (Registry.counter "par.shard_rows_total")
  in
  let maxw0 =
    Registry.counter_value (Registry.counter "par.shard_rows_max_weighted")
  in
  let bytes0 = if measure_alloc then Gc.allocated_bytes () else 0.0 in
  let work, outcome = Work.scoped (fun () -> run_workload pool) in
  let allocated =
    if measure_alloc then Gc.allocated_bytes () -. bytes0 else 0.0
  in
  let joins1 = Registry.counter_value (Registry.counter "par.sharded_joins") in
  let total1 =
    Registry.counter_value (Registry.counter "par.shard_rows_total")
  in
  let maxw1 =
    Registry.counter_value (Registry.counter "par.shard_rows_max_weighted")
  in
  Registry.set_enabled false;
  (match outcome with Ok _ -> () | Error e -> raise e);
  {
    work;
    sharded_joins = joins1 - joins0;
    shard_rows_total = total1 - total0;
    shard_rows_max_weighted = maxw1 - maxw0;
    allocated;
  }

let balance_ratio a =
  if a.shard_rows_total = 0 then 1.0
  else float_of_int a.shard_rows_max_weighted /. float_of_int a.shard_rows_total

type point = {
  domains : int;
  seconds : float;
  speedup : float;
  identical : bool;
  acct : accounting;
}

let run () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "parallel workload engine: serial vs pooled (scale %.2f, best of %d, %d \
     cores)\n"
    scale reps cores;
  (* correctness first: the serial reference every pool size must match *)
  let serial_seconds, reference = time_best Pool.serial in
  let serial_acct = account Pool.serial ~measure_alloc:true in
  let points =
    List.map
      (fun domains ->
        let pool = Pool.create ~domains () in
        let seconds, run = time_best pool in
        let acct = account pool ~measure_alloc:false in
        Pool.shutdown pool;
        {
          domains;
          seconds;
          speedup = serial_seconds /. seconds;
          identical = workload_identical reference run;
          acct;
        })
      [ 1; 2; 4 ]
  in
  Printf.printf "%-8s %12s %9s %10s %12s %9s\n" "domains" "seconds" "speedup"
    "identical" "work-score" "balance";
  Printf.printf "%-8s %12.6f %9s %10s %12d %9s\n" "serial" serial_seconds
    "1.00x" "-"
    (Work.score serial_acct.work)
    "-";
  List.iter
    (fun p ->
      Printf.printf "%-8d %12.6f %8.2fx %10s %12d %8.2f\n" p.domains p.seconds
        p.speedup
        (if p.identical then "yes" else "NO — MISMATCH")
        (Work.score p.acct.work) (balance_ratio p.acct))
    points;
  (* sharded joins must cut within 3x of a perfectly even row split;
     pools that never shard (tiny inputs, 1-domain pools) don't count,
     and sharding_active says whether any did *)
  let max_balance =
    List.fold_left
      (fun acc p ->
        if p.acct.sharded_joins > 0 then max acc (balance_ratio p.acct)
        else acc)
      1.0 points
  in
  let acct_cell id ?(speedup = 1.0) ?(identical = true) seconds a =
    Harness.cell id ~work:a.work ~alloc:a.allocated ~seconds
      [
        ("speedup", Json.Float speedup);
        ("identical", Json.Bool identical);
        ("sharded_joins", Json.Int a.sharded_joins);
        ("shard_rows_total", Json.Int a.shard_rows_total);
        ("shard_rows_max_weighted", Json.Int a.shard_rows_max_weighted);
        ("balance", Json.Float (balance_ratio a));
      ]
  in
  {
    Harness.suite = "par";
    meta =
      [
        ("scale", Json.Float scale);
        ("reps", Json.Int reps);
        ("cores", Json.Int cores);
        ("max_balance", Json.Float max_balance);
      ];
    cells =
      acct_cell "workload@serial" serial_seconds serial_acct
      :: List.map
           (fun p ->
             acct_cell
               (Printf.sprintf "workload@%d" p.domains)
               ~speedup:p.speedup ~identical:p.identical p.seconds p.acct)
           points;
    gates =
      [
        ("identical_outputs", List.for_all (fun p -> p.identical) points);
        (* Table 2 must come out exact on the parallel build: the paper's
           plan-space counts are pure optimizer state *)
        ("counters_exact", Harness.table2_exact ());
        (* zero duplicated (and zero dropped) work: the deterministic
           counters agree bit-for-bit across serial and every pool size *)
        ( "work_identical_across_domains",
          List.for_all (fun p -> Work.equal serial_acct.work p.acct.work) points );
        ( "sharding_active",
          List.exists (fun p -> p.acct.sharded_joins > 0) points );
        ("shard_balanced", max_balance <= 3.0);
      ];
  }
