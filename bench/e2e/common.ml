(* Pieces every workload shares: options, set-up, correctness references,
   and the result line. *)

open Sjos_engine
module Json = Sjos_obs.Json
module Clock = Sjos_obs.Clock
module Column_store = Sjos_storage.Column_store
module Parse = Sjos_pattern.Parse
module Pool = Sjos_par.Pool

type opts = {
  workload : Spec.workload;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** document sizes relative to the paper's *)
  run_dir : string;  (** per-process scratch: column files, socket *)
}

(* Scratch files live under [_e2e/] in the working directory. *)
let scratch = "_e2e"

let now = Clock.now_ns
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let timed f =
  let t0 = now () in
  let v = f () in
  (v, Clock.elapsed_seconds ~since:t0)

let golden = 0x9E3779B97F4A7C15L

let finalize z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64: the request order and arrival times come from --seed. *)
let rng seed =
  let s = ref (Int64.of_int seed) in
  fun () ->
    s := Int64.add !s golden;
    finalize !s

(* uniform in [0, 1) *)
let uniform next () =
  Int64.to_float (Int64.shift_right_logical (next ()) 11) /. 9007199254740992.0

let shuffle next a =
  for i = Array.length a - 1 downto 1 do
    let j = Int64.to_int (Int64.unsigned_rem (next ()) (Int64.of_int (i + 1))) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The documents are the fixed instances whose match counts are pinned;
   the seed varies the request stream only. *)
let paper_scale o = o.scale = 1.0

let size o ds =
  max 500 (int_of_float (o.scale *. float_of_int (Workload.paper_size ds)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------- host speed ---------- *)

(* A shared host (a VM, a CI runner) can drift in speed by tens of
   percent within minutes, more than any bound on wall-clock metrics
   could absorb.  So each run also times, four times a second, a fixed
   piece of work that
   uses no project code and does not allocate: sort a copy of 16K ints in
   place, then stream through 4 MiB.  Gated times are rescaled to the
   speed at which this kernel takes [reference_ms] (about its mean on the
   host where the benchmark was defined); the wall-clock values are
   reported per-layer.  Its time is taken out of the window's elapsed
   time. *)
let reference_ms = 5.0

type host = {
  src : int array;
  buf : int array;
  big : int array;
  mutable samples : float list;
  mutable spent_ns : int64;
  mutable last : int64;
}

let host () =
  let next = rng 42 in
  let src = Array.init 16384 (fun _ -> Int64.to_int (next ()) land 0xFFFFFF) in
  {
    src;
    buf = Array.make 16384 0;
    big = Array.init (1 lsl 19) (fun i -> i);
    samples = [];
    spent_ns = 0L;
    last = 0L;
  }

let calibrate h =
  let t0 = now () in
  Array.blit h.src 0 h.buf 0 (Array.length h.src);
  Array.sort Int.compare h.buf;
  let sum = ref 0 in
  for i = 0 to Array.length h.big - 1 do
    sum := !sum + Array.unsafe_get h.big i
  done;
  ignore (Sys.opaque_identity !sum);
  let t1 = now () in
  h.samples <- ms_between t0 t1 :: h.samples;
  h.spent_ns <- Int64.add h.spent_ns (Int64.sub t1 t0);
  h.last <- t1

let period_ns = 250_000_000L

(* Between closed-loop requests. *)
let calibrate_every h =
  if Int64.compare (Int64.sub (now ()) h.last) period_ns >= 0 then calibrate h

(* In the open loop: only when nothing is in flight and the next request
   is not due for a while, so no request waits on the kernel. *)
let calibrate_if_idle h ~until =
  let at = now () in
  if
    Int64.compare (Int64.sub at h.last) period_ns >= 0
    && Int64.compare (Int64.sub until at) 15_000_000L >= 0
  then calibrate h

(* > 1 when the host runs faster than the reference: multiply a time by
   it (divide a rate) to express it at reference speed.  The mean, not
   the median, because a run's throughput follows the mean speed. *)
let speed h =
  let n = List.length h.samples in
  if n = 0 then nan
  else reference_ms /. (List.fold_left ( +. ) 0.0 h.samples /. float_of_int n)

(* ---------- set-up ---------- *)

type setup = {
  dbs : (Workload.dataset * Database.t) list;
  generate_s : float;
  load_s : float;
  warm_s : float;
}

let setup_total s = s.generate_s +. s.load_s +. s.warm_s

(* Generate, load and warm every dataset the workload reads.  [k] names
   this repetition's Disk directory. *)
let setup_once o k =
  List.fold_left
    (fun s ds ->
      let doc, g = timed (fun () -> Workload.generate ~size:(size o ds) ds) in
      let storage =
        if o.workload.Spec.disk then
          Column_store.disk ~page_size:Spec.page_items ~pool_pages:Spec.pool_pages
            ~dir:
              (Filename.concat o.run_dir
                 (Printf.sprintf "store-%d-%s" k (Workload.dataset_name ds)))
            ()
        else Column_store.mem
      in
      let db, l = timed (fun () -> Database.of_document ~storage doc) in
      let (), w = timed (fun () -> Database.warm db) in
      {
        dbs = (ds, db) :: s.dbs;
        generate_s = s.generate_s +. g;
        load_s = s.load_s +. l;
        warm_s = s.warm_s +. w;
      })
    { dbs = []; generate_s = 0.0; load_s = 0.0; warm_s = 0.0 }
    (Spec.datasets o.workload)

let dispose s = List.iter (fun (_, db) -> Database.dispose db) s.dbs

(* Set up [Spec.min_setups] times or more (see [Spec.setup_budget_s]) and
   keep the last.  [start] is a workload-specific step (the server)
   timed into each repetition; [stop] undoes it.  Earlier repetitions
   are torn down and collected before the next, so the peak RSS reflects
   one set-up, not several. *)
let repeated_setup o ~start ~stop =
  let t0 = now () in
  (* the host is timed around every repetition, as during the window *)
  let h = host () in
  let sample () = for _ = 1 to 3 do calibrate h done in
  (* [times] keeps only numbers: holding a repetition's databases would
     keep its documents alive *)
  let rec go k times =
    sample ();
    let s = setup_once o k in
    let started, start_s = timed (fun () -> start k s) in
    let times =
      (setup_total s +. start_s, s.generate_s, s.load_s, s.warm_s) :: times
    in
    let more =
      k + 1 < Spec.min_setups
      || (k + 1 < Spec.max_setups
         && Clock.elapsed_seconds ~since:t0 < Spec.setup_budget_s)
    in
    if not more then (s, started, times)
    else begin
      stop started;
      dispose s;
      Gc.compact ();
      go (k + 1) times
    end
  in
  let s, started, times = go 0 [] in
  sample ();
  let speed = speed h in
  let med f = Stats.median (Array.of_list (List.map f times)) in
  ( s,
    started,
    [
      ("setup_s", speed *. med (fun (t, _, _, _) -> t));
      ("wall.setup_s", med (fun (t, _, _, _) -> t));
      ("datagen.generate_s", speed *. med (fun (_, g, _, _) -> g));
      ("storage.load_s", speed *. med (fun (_, _, l, _) -> l));
      ("storage.warm_s", speed *. med (fun (_, _, _, w) -> w));
      ( "storage.column_file_mb",
        List.fold_left
          (fun acc (_, db) ->
            acc
            +. float_of_int
                 (Option.value ~default:0
                    (Column_store.total_column_bytes (Database.store db)))
               /. 1048576.0)
          0.0 s.dbs );
    ] )

(* ---------- correctness references ---------- *)

(* Order-insensitive digest of a result set: the sum of per-tuple hashes.
   Two engines that return the same multiset of tuples agree on it
   whatever order they emit them in. *)
let multiset_digest tuples =
  let mix h v = finalize (Int64.add h (Int64.mul (Int64.of_int v) golden)) in
  Array.fold_left
    (fun acc tup -> Int64.add acc (Array.fold_left mix 0x2545F4914F6CDD1DL tup))
    0L tuples

(* DPP over binary plans with the plan cache on: the server's defaults. *)
let warm_opts = Query_opts.make ~pool:Pool.serial ()

(* The same with the plan cache off: a fresh search every request. *)
let cold_opts = Query_opts.cold warm_opts

let holistic_opts =
  Query_opts.make ~engine:Sjos_core.Optimizer.Holistic ~use_cache:false
    ~pool:Pool.serial ()

(* A class's result is right when the holistic TwigStack engine returns
   the same tuples and, at the paper's sizes, the pinned count. *)
let check_class o db (c : Spec.cls) tuples =
  let reference = Database.run ~opts:holistic_opts db (Parse.pattern c.text) in
  let same =
    Int64.equal (multiset_digest tuples)
      (multiset_digest reference.Database.exec.Sjos_exec.Executor.tuples)
  in
  let pinned = (not (paper_scale o)) || Array.length tuples = c.paper_count in
  if not same then
    Printf.eprintf "%s: binary and holistic results differ\n%!" c.id;
  if not pinned then
    Printf.eprintf "%s: %d matches, expected %d\n%!" c.id (Array.length tuples)
      c.paper_count;
  same && pinned

(* Σ node_card: candidates the histogram layer counts to price one
   request of this class. *)
let candidates_counted db (c : Spec.cls) =
  let pat = Parse.pattern c.text in
  let p = Database.provider db pat in
  let n = ref 0.0 in
  for i = 0 to Sjos_pattern.Pattern.node_count pat - 1 do
    n := !n +. p.Sjos_plan.Costing.node_card i
  done;
  !n

(* ---------- result ---------- *)

(* Allocation and collections across every domain: [Gc.quick_stat] sums
   the domains' counters as of their last minor collection, so the
   server's own domain counts in serve-mix. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  ( (s.minor_words +. s.major_words -. s.promoted_words)
    *. float_of_int (Sys.word_size / 8),
    s.minor_collections,
    s.major_collections )

(* Metrics of layers a workload does not exercise. *)
let zeros names = List.map (fun n -> (n, 0.0)) names

let gc_values ~requests (b0, mi0, ma0) =
  let b1, mi1, ma1 = gc_counts () in
  [
    ("gc.alloc_mb_per_req", (b1 -. b0) /. 1048576.0 /. requests);
    ("gc.minor_per_req", float_of_int (mi1 - mi0) /. requests);
    ("gc.major_per_req", float_of_int (ma1 - ma0) /. requests);
  ]

(* The highest percentile of a sorted sample with ten samples beyond it. *)
let tail sorted =
  match Stats.tail_percentile (Array.length sorted) with
  | Some p -> Stats.percentile sorted p
  | None -> Stats.percentile sorted 1.0

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let result_json o r =
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        let v =
          match List.assoc_opt m.mname r.values with
          | Some v when Float.is_finite v -> v
          | _ -> failwith ("metric not measured: " ^ m.mname)
        in
        (m.mname, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.unit_) ]))
      (Spec.metrics ~trace:o.trace)
  in
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj metrics);
    ]

(* A traced run's Chrome trace-event document goes to
   [_e2e/trace-<workload>.json]. *)
let write_trace o chrome =
  let path = Filename.concat scratch ("trace-" ^ o.workload.Spec.name ^ ".json") in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string chrome);
      output_char oc '\n')
