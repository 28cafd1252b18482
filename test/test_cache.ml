(* The prepared-query pipeline: structural fingerprints, the LRU plan
   cache, and cached-vs-cold result identity. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_core
open Sjos_exec
open Sjos_engine
open Sjos_cache
module Work = Sjos_obs.Work

let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string
let check = Alcotest.check

(* ---------- fingerprints ---------- *)

let tag = Candidate.of_tag

(* manager(//employee(/name),/department), built with two different node
   numberings: the canonical parse order and a scrambled one. *)
let pat_ordered =
  Pattern.create
    ~labels:[| tag "manager"; tag "employee"; tag "name"; tag "department" |]
    ~edges:
      [|
        (0, Axes.Descendant, 1); (1, Axes.Child, 2); (0, Axes.Child, 3);
      |]
    ()

let pat_scrambled =
  Pattern.create
    ~labels:[| tag "manager"; tag "department"; tag "employee"; tag "name" |]
    ~edges:
      [|
        (0, Axes.Child, 1); (0, Axes.Descendant, 2); (2, Axes.Child, 3);
      |]
    ()

let test_fingerprint_renumbering () =
  check cs "renumbered isomorphs share a fingerprint"
    (Fingerprint.fingerprint pat_ordered)
    (Fingerprint.fingerprint pat_scrambled);
  (* sibling order in the parse string is also numbering, not structure *)
  check cs "permuted branches share a fingerprint"
    (Fingerprint.fingerprint (Parse.pattern "a(/b,//c(/d))"))
    (Fingerprint.fingerprint (Parse.pattern "a(//c(/d),/b)"))

let test_fingerprint_sensitivity () =
  let fp s = Fingerprint.fingerprint (Parse.pattern s) in
  check cb "axis change changes the fingerprint" false (fp "a(/b)" = fp "a(//b)");
  check cb "label change changes the fingerprint" false (fp "a(/b)" = fp "a(/c)");
  check cb "shape change changes the fingerprint" false
    (fp "a(/b(/c))" = fp "a(/b,/c)");
  let p = Parse.pattern "a(/b,/c)" in
  check cb "order-by node changes the fingerprint" false
    (Fingerprint.fingerprint (Pattern.with_order_by p (Some 1))
    = Fingerprint.fingerprint (Pattern.with_order_by p (Some 2)));
  check cb "order-by presence changes the fingerprint" false
    (Fingerprint.fingerprint p
    = Fingerprint.fingerprint (Pattern.with_order_by p (Some 1)));
  (* order-by on one of two *identical* branches is pure renumbering: the
     canonical mapping transports the sort node, so the fingerprints agree *)
  let twin = Parse.pattern "a(/b,/b)" in
  check cs "order-by on interchangeable twins is isomorphic"
    (Fingerprint.fingerprint (Pattern.with_order_by twin (Some 1)))
    (Fingerprint.fingerprint (Pattern.with_order_by twin (Some 2)))

(* The two numberings agree label for label at every canonical index,
   and each mapping is the other's inverse and fixes the root. *)
let test_canonical_mapping () =
  let o = Fingerprint.canonical pat_ordered in
  let s = Fingerprint.canonical pat_scrambled in
  for k = 0 to Pattern.node_count pat_ordered - 1 do
    check cb "label preserved through mapping" true
      (Pattern.label pat_ordered o.Fingerprint.of_canon.(k)
      = Pattern.label pat_scrambled s.Fingerprint.of_canon.(k));
    List.iter
      (fun (c : Fingerprint.canonical) ->
        check ci "of_canon inverts to_canon" k c.to_canon.(c.of_canon.(k)))
      [ o; s ]
  done;
  check ci "root maps to root" 0 s.Fingerprint.to_canon.(0);
  check ci "root maps from root" 0 s.Fingerprint.of_canon.(0)

(* Fingerprints are plan-cache keys, and [Chaos.derive] keys each query's
   fault stream on them: every fingerprint string and canonical mapping
   below must stay byte-identical across refactors.  Each row is a
   workload query id or a pattern text (the five serve-mix classes, then
   order-by and twin cases), its fingerprint and its [to_canon] array. *)
let pinned_keys =
  [
    ("Q.Mbench.1.a", "b4f074f7e69ad334046809eaf88632ec", [| 0; 1; 2 |]);
    ("Q.Mbench.2.b", "a592d767e7cfd309ecd9cf9829e584d8", [| 0; 3; 1; 2 |]);
    ("Q.DBLP.1.b", "27756421482f49a4a28c84f426c5b372", [| 0; 3; 1; 2 |]);
    ("Q.DBLP.2.c", "a65d289e61f688152598f3acc09950ac", [| 0; 3; 4; 1; 2 |]);
    ("Q.Pers.1.a", "1aeedf876ec63424d7a67cbe2fcc46ed", [| 0; 1; 2 |]);
    ("Q.Pers.2.c", "b532ff96fa747dcbeb389b124f3e8e07", [| 0; 3; 4; 1; 2 |]);
    ("Q.Pers.3.d", "848c815a90ac145bfef7ac2f28646ad4", [| 0; 4; 5; 1; 2; 3 |]);
    ("Q.Pers.4.d", "74fb00af7ae751a819d33e18ca81d03f", [| 0; 1; 2; 3; 4; 5 |]);
    ("manager(/department(/name))", "0a5e684107b94f9bc9e667c798ae3513", [| 0; 1; 2 |]);
    ("employee(/name)", "379d80b022a479754edbb64930a16a20", [| 0; 1 |]);
    ("manager(//department)", "50bf01754252c2a658a1210871ee80a4", [| 0; 1 |]);
    ("department(/name)", "bf549f7a160ce237533db3e73700f765", [| 0; 1 |]);
    ("manager(/employee(/salary))", "ea3dde90a87b38c305af697c99e3f19d", [| 0; 1; 2 |]);
    ("a(/b,/c) order by B", "f2a5f11044242c108b94bc0c2a128a34", [| 0; 1; 2 |]);
    ("a(/b,/c) order by C", "33d5faf9683a697ea94a01fd5d375f65", [| 0; 2; 1 |]);
    ("a(/b,/c)", "9605fc3969d2671b4339fc43e51cacb2", [| 0; 1; 2 |]);
    ("a(/b,/b)", "5e1c95118a74718b345a4cb4129546b0", [| 0; 1; 2 |]);
    ("a(/b,/b) order by B", "eafc65b83d0c39aec85c99c9f2a09155", [| 0; 1; 2 |]);
    ("a(/b,/b) order by C", "eafc65b83d0c39aec85c99c9f2a09155", [| 0; 2; 1 |]);
  ]

let test_pinned_keys () =
  List.iter
    (fun (name, fp, to_canon) ->
      let p =
        match List.find_opt (fun q -> q.Workload.id = name) Workload.queries with
        | Some q -> q.Workload.pattern
        | None -> Parse.pattern name
      in
      check cs (name ^ " fingerprint") fp (Fingerprint.fingerprint p);
      check (Alcotest.array ci) (name ^ " to_canon") to_canon
        (Fingerprint.canonical p).Fingerprint.to_canon)
    pinned_keys

(* ---------- LRU ---------- *)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 in
  check cb "no eviction below capacity" true (Lru.add l "a" 1 = None);
  check cb "no eviction at capacity" true (Lru.add l "b" 2 = None);
  (* touching "a" makes "b" the least recently used *)
  check cb "hit" true (Lru.find l "a" = Some 1);
  check cb "evicts the LRU key" true (Lru.add l "c" 3 = Some "b");
  check cb "b gone" true (Lru.find l "b" = None);
  check ci "still at capacity" 2 (Lru.length l);
  (* "a" survived the eviction and is now the least recently used *)
  check cb "a evicted next" true (Lru.add l "d" 4 = Some "a");
  (* replacing an existing key never evicts, and promotes it *)
  check cb "replace is not an insert" true (Lru.add l "c" 9 = None);
  check cb "replaced value" true (Lru.find l "c" = Some 9);
  check cb "replace promoted c" true (Lru.add l "e" 5 = Some "d")

let test_plan_cache_counters () =
  let c = Plan_cache.create () in
  let entry = "plan" in
  check cb "miss on empty" true (Plan_cache.find c "k1" = None);
  Plan_cache.add c "k1" entry;
  check cb "hit" true (Plan_cache.find c "k1" <> None);
  (* 257 distinct keys into 256 slots: exactly one eviction *)
  for i = 2 to 257 do
    Plan_cache.add c ("k" ^ string_of_int i) entry
  done;
  let s = Plan_cache.stats c in
  check ci "one eviction" 1 s.Plan_cache.evictions;
  check ci "one hit" 1 s.Plan_cache.hits;
  check ci "one miss" 1 s.Plan_cache.misses;
  check ci "full" 256 s.Plan_cache.entries;
  check ci "capacity" 256 s.Plan_cache.capacity

(* ---------- prepared queries against a database ---------- *)

let db () = Database.of_string Helpers.tiny_pers_xml
let pers_pat = "manager(//employee(/name))"

let effort_is_zero (r : Optimizer.result) = Work.is_zero r.Optimizer.work
let considered (r : Optimizer.result) = r.Optimizer.work.Work.plans_considered

let test_warm_run_skips_search () =
  let db = db () in
  let p = Helpers.pat pers_pat in
  let cold = Database.run db p in
  check cb "cold run searched" true (considered cold.Database.opt > 0);
  let warm = Database.run db p in
  check cb "warm run searched nothing" true (effort_is_zero warm.Database.opt);
  let s = Plan_cache.stats (Database.plan_cache db) in
  check cb "hit counted" true (s.Plan_cache.hits >= 1);
  check cb "same plan" true
    (Sjos_plan.Plan.equal cold.Database.opt.Optimizer.plan
       warm.Database.opt.Optimizer.plan);
  check cb "identical tuples" true
    (cold.Database.exec.Executor.tuples = warm.Database.exec.Executor.tuples)

(* Same structure, different construction order: one optimizer search
   serves both, and the hit is the first pattern's plan carried through
   the two canonical mappings.  The holistic engine's plan also carries
   node masks and path masks to transport. *)
let test_warm_hit_across_numbering () =
  let ordered = Fingerprint.canonical pat_ordered in
  let scrambled = Fingerprint.canonical pat_scrambled in
  let transport =
    Sjos_plan.Plan.map_nodes (fun i ->
        scrambled.Fingerprint.of_canon.(ordered.Fingerprint.to_canon.(i)))
  in
  List.iter
    (fun engine ->
      let name = Optimizer.engine_name engine ^ ": " in
      let db = db () in
      let opts = Query_opts.make ~engine () in
      let first = (Database.run ~opts db pat_ordered).Database.opt in
      let p = Database.prepare ~opts db pat_scrambled in
      check cb (name ^ "renumbered pattern hits the cache") true
        (Database.prepared_from_cache p);
      let hit = Database.prepared_result p in
      check cb (name ^ "the first plan, transported") true
        (Sjos_plan.Plan.equal (transport first.Optimizer.plan)
           hit.Optimizer.plan);
      check cb (name ^ "the plan's own engine") true
        (Sjos_plan.Plan.uses_holistic hit.Optimizer.plan
        = (engine = Optimizer.Holistic));
      check cb (name ^ "the same estimate, to the bit") true
        (Int64.equal
           (Int64.bits_of_float first.Optimizer.est_cost)
           (Int64.bits_of_float hit.Optimizer.est_cost));
      let run = Database.exec p in
      check cb (name ^ "and still finds matches") true
        (Array.length run.Database.exec.Executor.tuples > 0))
    [ Optimizer.Binary; Optimizer.Holistic ]

let test_cold_opts_bypass () =
  let db = db () in
  let p = Helpers.pat pers_pat in
  ignore (Database.run db p);
  let run = Database.run ~opts:(Query_opts.cold Query_opts.default) db p in
  check cb "cold opts always search" true
    (considered run.Database.opt > 0);
  (* a cold prepare is the fresh-search entry Table 2 relies on *)
  let r = Helpers.cold_result db p in
  check cb "cold prepare never reads the cache" true (considered r > 0)

(* A database is configured by its constructor alone: its plan cache
   holds 256 plans, its statistics use grid 32, and a prepared handle
   keeps the plan it was prepared with. *)
let test_configured_once () =
  let db = db () in
  let cache = Database.plan_cache db in
  check ci "cache capacity" 256 (Plan_cache.stats cache).Plan_cache.capacity;
  check ci "own grid" 32
    (Sjos_histogram.Stats_catalog.grid (Database.catalog db));
  let p = Helpers.pat pers_pat in
  let prep = Database.prepare db p in
  let first = Database.exec prep in
  let second = Database.exec prep in
  check cb "handle keeps its plan" true
    (first.Database.opt == second.Database.opt);
  check cb "and its tuples" true
    (first.Database.exec.Executor.tuples = second.Database.exec.Executor.tuples)

let test_cached_equals_cold_on_workload () =
  let sizes = function
    | Workload.Pers -> 600
    | Workload.Mbench -> 800
    | Workload.Dblp -> 800
  in
  let dbs = Hashtbl.create 4 in
  let db_for ds =
    match Hashtbl.find_opt dbs ds with
    | Some db -> db
    | None ->
        let db = Database.of_document (Workload.generate ~size:(sizes ds) ds) in
        Hashtbl.add dbs ds db;
        db
  in
  List.iter
    (fun (q : Workload.query) ->
      let db = db_for q.Workload.dataset in
      let cold =
        Workload.run ~opts:(Query_opts.cold Query_opts.default) db q
      in
      ignore (Workload.run db q) (* populate *);
      let warm = Workload.run db q in
      check cb (q.Workload.id ^ " warm used the cache") true
        (effort_is_zero warm.Database.opt);
      let ct = cold.Database.exec.Executor.tuples in
      let wt = warm.Database.exec.Executor.tuples in
      check ci (q.Workload.id ^ " same match count") (Array.length ct)
        (Array.length wt);
      Array.iteri
        (fun i t ->
          check cb (q.Workload.id ^ " tuple bit-identical") true
            (Tuple.equal t wt.(i)))
        ct)
    Workload.queries

(* The engine is part of the cache key: a plan optimized under one
   physical engine must never be served to another, and a holistic plan
   round-trips through the serialized cache entry intact. *)
let test_engine_in_cache_key () =
  let db = db () in
  let p = Helpers.pat pers_pat in
  let run engine = Database.run ~opts:(Query_opts.make ~engine ()) db p in
  let bin = run Optimizer.Binary in
  check cb "binary cold run searched" true
    (considered bin.Database.opt > 0);
  (* a different engine with the same algorithm+structure must miss *)
  let hol = run Optimizer.Holistic in
  check cb "holistic plan chosen" true
    (Sjos_plan.Plan.uses_holistic hol.Database.opt.Optimizer.plan);
  check cb "binary entry not served to holistic" false
    (Sjos_plan.Plan.uses_holistic bin.Database.opt.Optimizer.plan);
  let auto = run Optimizer.Auto in
  check cb "auto cold run searched" true
    (considered auto.Database.opt > 0);
  (* warm per engine: each hits its own entry and round-trips its plan *)
  let bin2 = run Optimizer.Binary in
  let hol2 = run Optimizer.Holistic in
  let auto2 = run Optimizer.Auto in
  check cb "binary warm hit" true (effort_is_zero bin2.Database.opt);
  check cb "holistic warm hit" true (effort_is_zero hol2.Database.opt);
  check cb "auto warm hit" true (effort_is_zero auto2.Database.opt);
  check cb "holistic plan round-trips the cache" true
    (Sjos_plan.Plan.equal hol.Database.opt.Optimizer.plan
       hol2.Database.opt.Optimizer.plan);
  check cb "binary warm plan unchanged" true
    (Sjos_plan.Plan.equal bin.Database.opt.Optimizer.plan
       bin2.Database.opt.Optimizer.plan);
  check cb "auto warm plan unchanged" true
    (Sjos_plan.Plan.equal auto.Database.opt.Optimizer.plan
       auto2.Database.opt.Optimizer.plan);
  (* all three engines agree on the result set *)
  let sorted (r : Database.query_run) =
    List.sort compare
      (List.map Array.to_list
         (Array.to_list r.Database.exec.Executor.tuples))
  in
  check cb "identical results across engines" true
    (sorted bin = sorted hol && sorted hol = sorted auto)

let test_pattern_names_distinct () =
  (* >26 nodes used to collide on "N%d"-style names *)
  let n = 60 in
  let labels = Array.make n Candidate.any in
  let edges = Array.init (n - 1) (fun i -> (i, Axes.Child, i + 1)) in
  let p = Pattern.create ~labels ~edges () in
  let names = List.init n (Pattern.name p) in
  check ci "all names distinct" n
    (List.length (List.sort_uniq String.compare names));
  check cs "index 0" "A" (Pattern.name p 0);
  check cs "index 25" "Z" (Pattern.name p 25);
  check cs "index 26" "AA" (Pattern.name p 26);
  check cs "index 51" "AZ" (Pattern.name p 51);
  check cs "index 52" "BA" (Pattern.name p 52)

let suite =
  [
    Alcotest.test_case "fingerprint invariant under renumbering" `Quick
      test_fingerprint_renumbering;
    Alcotest.test_case "fingerprint sensitive to axis/label/shape" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "canonical mapping preserves labels" `Quick
      test_canonical_mapping;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "plan-cache counters" `Quick test_plan_cache_counters;
    Alcotest.test_case "warm run skips the search" `Quick
      test_warm_run_skips_search;
    Alcotest.test_case "warm hit across numberings" `Quick
      test_warm_hit_across_numbering;
    Alcotest.test_case "cold opts bypass the cache" `Quick
      test_cold_opts_bypass;
    Alcotest.test_case "a database is configured once" `Quick
      test_configured_once;
    Alcotest.test_case "cached = cold on all workload queries" `Slow
      test_cached_equals_cold_on_workload;
    Alcotest.test_case "engine is part of the cache key" `Quick
      test_engine_in_cache_key;
    Alcotest.test_case "pattern names distinct past 26 nodes" `Quick
      test_pattern_names_distinct;
    Alcotest.test_case "cache keys pinned" `Quick test_pinned_keys;
  ]
