(* Binary Stack-Tree plans vs the holistic TwigStack operator, head to head.

   Four deterministic gates, plus a non-empty result on every cell:

   1. Output identity — on every cell the binary and holistic engines
      return the same result set (canonically ordered tuples compare
      equal), and the default-Binary Table 2 plan counters stay exact
      (520/226/163/69/42/18).
   2. Deterministic work — running each engine twice yields Work.equal,
      so the head-to-head is scored in deterministic work units, not
      wall clock.
   3. Holistic win — there is a deep-`//`-chain cell marked
      [`Holistic], and on every one the holistic engine's comparisons +
      io_items is strictly below the binary engine's.
   4. Auto agreement — Auto picks the holistic plan exactly on the
      cells where the cost model prices it below the best binary plan
      (every [`Holistic] cell, no [`Binary] cell), and Auto's result
      set matches both engines everywhere.

   Baselined work cells are <cell>:binary and <cell>:holistic.
   SJOS_BENCH_SCALE defaults to 0.5 (1.0 = full).

   Run with: dune exec bench/main.exe -- twig *)

open Sjos_engine
open Sjos_exec
module Optimizer = Sjos_core.Optimizer
module Plan = Sjos_plan.Plan
module Work = Sjos_obs.Work
module Json = Sjos_obs.Json

let scale = Harness.scale ~default:0.5
let scaled = Harness.scaled scale

(* Chain cells stay well below the differential workload's sizes: a
   deep eNest self-chain's output grows combinatorially with document
   depth, and the point here is the engine comparison, not volume. *)
let bench_size = function
  | Workload.Mbench -> scaled 6_000
  | Workload.Dblp -> scaled 30_000
  | Workload.Pers -> scaled 5_000

let db_for ds = Harness.db ~size:(bench_size ds) ds

(* ---------- cells ---------- *)

type cell = {
  id : string;
  dataset : Workload.dataset;
  text : string;
  expect : [ `Holistic | `Binary ];
      (* which engine the cost model should pick under Auto; `Holistic
         cells additionally gate a strict measured-work win *)
}

let cells =
  [
    (* deep-`//` chains over recursive data, output in document order
       of the chain root: the binary algebra must either buffer every
       intermediate through Stack-Tree-Anc or sort an exploding
       intermediate, while TwigStack streams the candidate columns
       once and pays IO only per path solution *)
    {
      id = "T.Mbench.chain3";
      dataset = Workload.Mbench;
      text = "eNest(//eNest(//eNest)) order by A";
      expect = `Holistic;
    };
    {
      id = "T.Mbench.chain4";
      dataset = Workload.Mbench;
      text = "eNest(//eNest(//eNest(//eNest))) order by A";
      expect = `Holistic;
    };
    (* selective or shallow cells: binary's streaming Stack-Tree-Desc
       joins touch fewer items than a holistic pass over every
       candidate column, and the cost model knows it *)
    {
      id = "T.Pers.chain4";
      dataset = Workload.Pers;
      text = "company(//manager(//manager(//employee)))";
      expect = `Binary;
    };
    {
      id = "T.Mbench.star";
      dataset = Workload.Mbench;
      text = "eNest[@aLevel='2'](//eNest[@aLevel='6'](/eNest[@aLevel='7']))";
      expect = `Binary;
    };
    {
      id = "T.Dblp.branch";
      dataset = Workload.Dblp;
      text = "inproceedings(/author,//cite(/title))";
      expect = `Binary;
    };
    {
      id = "T.Pers.branch";
      dataset = Workload.Pers;
      text = "manager(//employee(/name),//department(/name))";
      expect = `Binary;
    };
  ]

(* ---------- measurement ---------- *)

let opts_for engine =
  (* caching off: every run must exercise the optimizer so est costs
     and plans_considered are comparable across engines *)
  Query_opts.make ~engine ~use_cache:false ()

let accounted db pat engine =
  Harness.timed (fun () -> Database.run ~opts:(opts_for engine) db pat)

let canonical (r : Database.query_run) =
  let ts = Array.copy r.Database.exec.Executor.tuples in
  Array.sort compare ts;
  ts

(* the head-to-head score: deterministic comparisons plus buffered
   intermediate items — the two counters the twig cost formula prices *)
let score (w : Work.t) = w.Work.comparisons + w.Work.io_items

type row = {
  cell : cell;
  rows_out : int;
  bin_work : Work.t;
  bin_est : float;
  bin_seconds : float;
  hol_work : Work.t;
  hol_est : float;
  hol_seconds : float;
  auto_holistic : bool;
  identical : bool;
  deterministic : bool;
}

let measure cell =
  let db = db_for cell.dataset in
  let pat = Sjos_pattern.Parse.pattern cell.text in
  (* Auto costs both engines' plans, so running it first builds every
     statistic the pattern needs in the database's catalog: each engine's
     two measured runs then start from the same state and must charge
     identical work, histogram_items (0) included. *)
  let _, ar, _ = accounted db pat Optimizer.Auto in
  let bw, br, bs = accounted db pat Optimizer.Binary in
  let bw2, br2, _ = accounted db pat Optimizer.Binary in
  let hw, hr, hs = accounted db pat Optimizer.Holistic in
  let hw2, hr2, _ = accounted db pat Optimizer.Holistic in
  let cb = canonical br and ch = canonical hr and ca = canonical ar in
  {
    cell;
    rows_out = Array.length cb;
    bin_work = bw;
    bin_est = br.Database.opt.Optimizer.est_cost;
    bin_seconds = bs;
    hol_work = hw;
    hol_est = hr.Database.opt.Optimizer.est_cost;
    hol_seconds = hs;
    auto_holistic = Plan.uses_holistic ar.Database.opt.Optimizer.plan;
    identical = cb = ch && cb = ca;
    deterministic =
      Work.equal bw bw2 && Work.equal hw hw2
      && canonical br2 = cb && canonical hr2 = ch;
  }

(* ---------- the suite ---------- *)

let run () =
  Printf.printf "twig engine head-to-head: binary vs holistic (scale %.2f)\n"
    scale;
  let rows = List.map measure cells in
  Printf.printf "%-16s %7s | %12s %12s %10s | %12s %12s %10s | %s\n" "cell"
    "tuples" "bin cmp+io" "bin est" "bin(s)" "hol cmp+io" "hol est" "hol(s)"
    "auto";
  List.iter
    (fun r ->
      Printf.printf
        "%-16s %7d | %12d %12.0f %10.4f | %12d %12.0f %10.4f | %s%s\n"
        r.cell.id r.rows_out (score r.bin_work) r.bin_est r.bin_seconds
        (score r.hol_work) r.hol_est r.hol_seconds
        (if r.auto_holistic then "holistic" else "binary")
        (if r.identical then "" else "  !! MISMATCH"))
    rows;
  let engine_cell r engine work est seconds =
    Harness.cell (r.cell.id ^ ":" ^ engine) ~work ~seconds
      [
        ("dataset", Json.Str (Workload.dataset_name r.cell.dataset));
        ("pattern", Json.Str r.cell.text);
        ( "expect",
          Json.Str (if r.cell.expect = `Holistic then "holistic" else "binary") );
        ("auto_picked", Json.Str (if r.auto_holistic then "holistic" else "binary"));
        ("output_tuples", Json.Int r.rows_out);
        ("cmp_io", Json.Int (score work));
        ("est_cost", Json.Float est);
        ("identical", Json.Bool r.identical);
        ("deterministic", Json.Bool r.deterministic);
      ]
  in
  let holistic = List.filter (fun r -> r.cell.expect = `Holistic) rows in
  {
    Harness.suite = "twig";
    meta = [ ("scale", Json.Float scale) ];
    cells =
      List.concat_map
        (fun r ->
          [
            engine_cell r "binary" r.bin_work r.bin_est r.bin_seconds;
            engine_cell r "holistic" r.hol_work r.hol_est r.hol_seconds;
          ])
        rows;
    gates =
      [
        ("identical_outputs", List.for_all (fun r -> r.identical) rows);
        ("nonzero_output_tuples", List.for_all (fun r -> r.rows_out > 0) rows);
        ("deterministic_work", List.for_all (fun r -> r.deterministic) rows);
        ("table2_exact", Harness.table2_exact ());
        (* at least one deep-chain cell, and holistic wins every one *)
        ( "holistic_wins_deep_chains",
          holistic <> []
          && List.for_all (fun r -> score r.hol_work < score r.bin_work) holistic );
        ( "auto_agrees",
          List.for_all
            (fun r -> r.auto_holistic = (r.cell.expect = `Holistic))
            rows );
      ];
  }
