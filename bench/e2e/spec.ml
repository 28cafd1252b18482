(* What the benchmark runs and reports: the four workloads, their query
   classes with pinned match counts, and every metric with its unit.
   BENCHMARK.json at the repository root lists the same names; the smoke
   test checks that the two agree. *)

open Sjos_engine

type kind =
  | Cold  (** a fresh optimizer search every request *)
  | Warm  (** plan cache on: every request after the warm-up is a hit *)
  | Serve  (** open loop against the in-process server *)

type cls = {
  id : string;
  dataset : Workload.dataset;
  text : string;  (** pattern syntax, parsed on every request *)
  paper_count : int;  (** matches at the paper's document sizes *)
}

type workload = {
  name : string;
  kind : kind;
  disk : bool;  (** Disk column store behind a small page pool *)
  classes : cls list;
}

let cls id dataset text paper_count = { id; dataset; text; paper_count }

let mbench_1a =
  cls "Q.Mbench.1.a" Workload.Mbench
    "eNest[@aLevel='2'](//eNest[@aLevel='6'](/eNest[@aLevel='7']))" 2463

let mbench_2b =
  cls "Q.Mbench.2.b" Workload.Mbench
    "eNest[@aLevel='1'](/eNest[@aLevel='2'],//eNest[@aSixtyFour='3'](/eOccasional))"
    2734

(* Classes per workload are weighted equally and their number is odd, so
   the median request falls inside one class rather than between two. *)
let workloads =
  [
    {
      name = "paper-cold";
      kind = Cold;
      disk = false;
      classes =
        [
          mbench_1a;
          mbench_2b;
          cls "Q.DBLP.1.b" Workload.Dblp "inproceedings(/author,//cite(/title))"
            17407;
        ];
    };
    {
      name = "join-heavy";
      kind = Warm;
      disk = false;
      classes =
        [
          cls "Q.Pers.2.c" Workload.Pers
            "manager(//employee(/name),//department(/name))" 975860;
          cls "Q.Pers.3.d" Workload.Pers
            "manager(//employee(/name),//manager(/department(/name)))" 969545;
          cls "Q.Pers.4.d" Workload.Pers
            "manager(//department(/name),//manager(/employee(/name)))" 967226;
        ];
    };
    {
      name = "out-of-core";
      kind = Warm;
      disk = true;
      classes =
        [
          mbench_1a;
          mbench_2b;
          cls "Mbench.lazy-leaf" Workload.Mbench
            "eNest[@aLevel='3'](//eOccasional)" 67629;
        ];
    };
    {
      name = "serve-mix";
      kind = Serve;
      disk = false;
      classes =
        [
          cls "serve.1" Workload.Pers "manager(/department(/name))" 439;
          cls "serve.2" Workload.Pers "employee(/name)" 1027;
          cls "serve.3" Workload.Pers "manager(//department)" 4511;
          cls "serve.4" Workload.Pers "department(/name)" 439;
          cls "serve.5" Workload.Pers "manager(/employee(/salary))" 1027;
        ];
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

let datasets w =
  List.sort_uniq compare (List.map (fun c -> c.dataset) w.classes)

(* Disk geometry of out-of-core: 8 KiB pages, a 64-page (512 KiB) pool,
   about 45x smaller than Mbench 740K's column file. *)
let page_items = 1024
let pool_pages = 64

(* Set-up is repeated at least [min_setups] times per run, and more
   while a run has spent under [setup_budget_s] on it (cheap set-ups are
   noisy); setup_s is the median. *)
let min_setups = 3
let max_setups = 25
let setup_budget_s = 1.0

(* serve-mix: offered rates and each step's share of the window.  The
   first step carries the latency metrics, so it gets half the time. *)
let ladder = [ (300.0, 0.5); (600.0, 0.25); (1200.0, 0.25) ]

(* A step meets its limit when this percentile of its requests, counting
   an unanswered or failed request as infinitely late, stays within
   [latency_limit_ms]. *)
let latency_limit_ms = 20.0
let limit_percentile = 0.99

(* Requests in flight per connection.  Requests and responses are a few
   hundred bytes, so with this bound neither side's socket buffer can
   fill and a blocking write can never wait on the peer. *)
let max_outstanding = 4

type metric = { mname : string; unit_ : string }

let m mname unit_ = { mname; unit_ }

(* Printed with --trace 0: the metrics a later change is gated on.
   Latency comes from the closed loops' few hundred requests and from
   serve-mix's 300 q/s step (3000 requests).  On a shared host the tail
   percentiles move by more than a bound can allow from one run to the
   next, so p90 and the deepest supported percentile are per-layer.
   Times and rates are rescaled to a reference host speed (see
   [Common.reference_ms]). *)
let end_to_end =
  [
    m "setup_s" "s";
    m "throughput_qps" "req/s";
    m "latency_p50_ms" "ms";
    m "peak_rss_mb" "MiB";
  ]

(* Printed with --trace 1, from a run whose requests alternate between
   traced and untraced.  Shares are of the traced requests' end-to-end
   time, split by self time. *)
let per_layer =
  [
    m "wall.setup_s" "s";
    m "wall.throughput_qps" "req/s";
    m "wall.latency_p50_ms" "ms";
    m "host.speed" "ratio";
    m "latency_p90_ms" "ms";
    m "latency_tail_ms" "ms";
    m "datagen.generate_s" "s";
    m "storage.load_s" "s";
    m "storage.warm_s" "s";
    m "storage.column_file_mb" "MiB";
    m "pattern.share" "fraction";
    m "histogram.share" "fraction";
    m "core.share" "fraction";
    m "cache.share" "fraction";
    m "exec.share" "fraction";
    m "serve.share" "fraction";
    m "exec.execute_ms" "ms";
    m "exec.scan_share" "fraction";
    m "exec.join_share" "fraction";
    m "exec.sort_share" "fraction";
    m "histogram.candidates_counted" "count";
    m "core.plans_considered" "count";
    m "core.expansions" "count";
    m "cache.hit_ratio" "fraction";
    m "cache.evictions" "count";
    m "exec.comparisons" "count";
    m "exec.stack_ops" "count";
    m "exec.sorted_items" "count";
    m "exec.io_items" "count";
    m "exec.items_skipped" "count";
    m "exec.rows_per_scanned" "ratio";
    m "storage.page_misses" "count";
    m "storage.page_touches" "count";
    m "storage.pool_hit_ratio" "fraction";
    m "storage.evictions" "count";
    m "serve.max_ok_rate_qps" "req/s";
    m "serve.outstanding_max" "count";
    m "serve.late_sends" "count";
    m "serve.shed" "count";
    m "gc.alloc_mb_per_req" "MiB";
    m "gc.minor_per_req" "count";
    m "gc.major_per_req" "count";
    m "trace.overhead_pct" "%";
    m "trace.unattributed_pct" "%";
  ]

let metrics ~trace = if trace then per_layer else end_to_end
