(* The large-pattern optimizer tier, gated.

   Five deterministic gates:

   1. Cost equality — on every generated pattern of <= 10 nodes (all
      four shape classes), BigDP's estimated cost equals exhaustive
      DP's to 1e-9 relative.
   2. Expansions capped at 30 — every 30-node cell expands at most
      (nodes - 1) x width masks.  BigDP expands at most [width] masks in
      each of layers 2..n, so a larger count means the width cap broke.
      The optimize seconds are recorded as advisory data.
   3. DP infeasibility — exhaustive DP is timed on a ladder of growing
      star patterns (each rung under a deadline budget); a least-squares
      exponential fit extrapolates DP's 30-node time, which must exceed
      60 seconds.  The measured ladder and the extrapolation are
      recorded in the report.
   4. Deterministic work — running every scaling cell twice yields
      identical Work.expansions / Work.plans_considered and identical
      estimated cost.
   5. Table 2 exact — the paper-scale plan counters under the default
      engine stay 520/226/163/69/42/18.

   The suite also gates its own coverage: a 30-node scaling cell
   exists, every differential cell has at most 10 nodes, and every
   scaling cell expanded and considered plans.  Baselined work cells
   are bigopt:<shape><nodes>, generated from seed 42.

   Run with: dune exec bench/main.exe -- bigopt *)

module Optimizer = Sjos_core.Optimizer
module Bigdp = Sjos_core.Bigdp
module Shapes = Sjos_pattern.Shapes
module Costing = Sjos_plan.Costing
module Work = Sjos_obs.Work
module Json = Sjos_obs.Json

(* The generator seed bench/baseline/bigopt.json pins. *)
let seed = 42

(* The deterministic synthetic provider shared with test_bigopt: a pure
   function of the node index / cluster mask, spread over three orders
   of magnitude, no document required. *)
let synth_provider =
  {
    Costing.node_card = (fun i -> float_of_int (10 + (i * 37 mod 91)));
    cluster_card =
      (fun m ->
        let h = (m * 2654435761) land 0xFFFF in
        float_of_int (1 + (h mod 1000)));
  }

let optimize algo p = Optimizer.optimize ~provider:synth_provider algo p

(* ---------- gate 1: cost equality on small patterns ---------- *)

type diff_row = {
  d_shape : string;
  d_nodes : int;
  d_dp : float;
  d_big : float;
}

let diff_ok r =
  abs_float (r.d_dp -. r.d_big) <= 1e-9 *. max 1.0 (abs_float r.d_dp)

let differential () =
  List.concat_map
    (fun shape ->
      List.map
        (fun nodes ->
          let p = Shapes.generate ~seed ~nodes shape in
          let dp = optimize Optimizer.Dp p in
          let big = optimize (Optimizer.Big_dp Bigdp.default_width) p in
          {
            d_shape = Shapes.gen_shape_name shape;
            d_nodes = nodes;
            d_dp = dp.Optimizer.est_cost;
            d_big = big.Optimizer.est_cost;
          })
        [ 4; 5; 6; 7; 8; 9; 10 ])
    Shapes.all_gen_shapes

(* ---------- gates 2 and 4: scaling cells, counted and repeated ----- *)

type scale_row = {
  s_shape : string;
  s_nodes : int;
  s_cost : float;
  s_seconds : float;
  s_work : Work.t;
  s_expanded : int;
  s_considered : int;
  s_deterministic : bool;
}

let scale_cell shape nodes =
  let p = Shapes.generate ~seed ~nodes shape in
  let run () =
    Harness.timed (fun () -> optimize (Optimizer.Big_dp Bigdp.default_width) p)
  in
  let w1, r1, s1 = run () in
  let w2, r2, _ = run () in
  {
    s_shape = Shapes.gen_shape_name shape;
    s_nodes = nodes;
    s_cost = r1.Optimizer.est_cost;
    s_seconds = s1;
    s_work = w1;
    s_expanded = r1.Optimizer.work.Work.expansions;
    s_considered = r1.Optimizer.work.Work.plans_considered;
    s_deterministic =
      w1.Work.expansions = w2.Work.expansions
      && w1.Work.plans_considered = w2.Work.plans_considered
      && r1.Optimizer.est_cost = r2.Optimizer.est_cost;
  }

let scaling () =
  List.concat_map
    (fun shape -> List.map (scale_cell shape) [ 15; 25; 30; 40 ])
    Shapes.all_gen_shapes

(* ---------- gate 3: DP's measured wall, extrapolated to 30 --------- *)

(* Time exhaustive DP on star patterns of growing width — the
   status-space's worst shape — each rung under a deadline so a
   too-steep rung is dropped rather than hanging the bench.  The ladder
   stops at the auto-tiering threshold; past it [Optimizer.optimize]
   would re-tier DP to BigDP (which is the point of this bench). *)
let dp_ladder () =
  List.filter_map
    (fun nodes ->
      let p = Shapes.generate ~seed ~nodes Shapes.Star in
      let budget = Sjos_guard.Budget.make ~deadline_ms:5_000.0 () in
      let t0 = Sjos_obs.Clock.now_ns () in
      match Optimizer.optimize ~budget ~provider:synth_provider Optimizer.Dp p with
      | _ -> Some (nodes, Sjos_obs.Clock.elapsed_seconds ~since:t0)
      | exception Sjos_guard.Budget.Exhausted _ -> None)
    [ 6; 7; 8; 9; 10; 11; 12 ]

(* least-squares fit of ln t = a + b*n over the rungs that took
   measurable time; DP's state space is exponential in n, so the
   log-linear fit is the honest extrapolation *)
let extrapolate_dp ladder ~target =
  let pts =
    List.filter_map
      (fun (n, t) -> if t > 1e-5 then Some (float_of_int n, log t) else None)
      ladder
  in
  match pts with
  | _ :: _ :: _ ->
      let m = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
      let b = ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx)) in
      let a = (sy -. (b *. sx)) /. m in
      Some (exp (a +. (b *. float_of_int target)))
  | _ -> None

(* ---------- the suite ---------- *)

let run () =
  Printf.printf "large-pattern optimizer tier: BigDP(%d) vs exhaustive DP (seed %d)\n"
    Bigdp.default_width seed;
  let diffs = differential () in
  let equal_small = List.for_all diff_ok diffs in
  Printf.printf "cost equality <= 10 nodes: %s (%d cells)\n"
    (if equal_small then "exact" else "MISMATCH")
    (List.length diffs);
  let rows = scaling () in
  Printf.printf "%-10s %6s | %12s %10s %10s %10s\n" "shape" "nodes" "cost"
    "seconds" "expanded" "considered";
  List.iter
    (fun r ->
      Printf.printf "%-10s %6d | %12.1f %10.4f %10d %10d%s\n" r.s_shape
        r.s_nodes r.s_cost r.s_seconds r.s_expanded r.s_considered
        (if r.s_deterministic then "" else "  !! NONDETERMINISTIC"))
    rows;
  let ladder = dp_ladder () in
  let extrapolated = extrapolate_dp ladder ~target:30 in
  List.iter
    (fun (n, t) -> Printf.printf "DP star n=%d: %.4fs\n" n t)
    ladder;
  (match extrapolated with
  | Some t -> Printf.printf "DP extrapolated to n=30: %.3e s\n" t
  | None -> Printf.printf "DP extrapolation: insufficient ladder\n");
  let at_30 = List.filter (fun r -> r.s_nodes = 30) rows in
  {
    Harness.suite = "bigopt";
    meta =
      [
        ("seed", Json.Int seed);
        ("width", Json.Int Bigdp.default_width);
        ( "dp_extrapolated_seconds",
          Option.fold ~none:Json.Null ~some:(fun t -> Json.Float t) extrapolated );
      ];
    cells =
      List.map
        (fun r ->
          Harness.cell
            (Printf.sprintf "diff:%s%d" r.d_shape r.d_nodes)
            [
              ("nodes", Json.Int r.d_nodes);
              ("dp_cost", Json.Float r.d_dp);
              ("bigdp_cost", Json.Float r.d_big);
              ("equal", Json.Bool (diff_ok r));
            ])
        diffs
      @ List.map
          (fun r ->
            Harness.cell
              (Printf.sprintf "bigopt:%s%d" r.s_shape r.s_nodes)
              ~work:r.s_work ~seconds:r.s_seconds
              [
                ("nodes", Json.Int r.s_nodes);
                ("cost", Json.Float r.s_cost);
                ("expanded", Json.Int r.s_expanded);
                ("considered", Json.Int r.s_considered);
                ("deterministic", Json.Bool r.s_deterministic);
              ])
          rows
      @ List.map
          (fun (n, t) -> Harness.cell (Printf.sprintf "dp:star%d" n) ~seconds:t [])
          ladder;
    gates =
      [
        ("cost_equality_small", equal_small);
        ("differential_at_most_10_nodes", List.for_all (fun r -> r.d_nodes <= 10) diffs);
        ("has_30_node_cell", at_30 <> []);
        ( "expansions_capped_at_30",
          List.for_all
            (fun r -> r.s_expanded <= (r.s_nodes - 1) * Bigdp.default_width)
            at_30 );
        ( "search_ran_every_cell",
          List.for_all (fun r -> r.s_expanded > 0 && r.s_considered > 0) rows );
        ("deterministic_work", List.for_all (fun r -> r.s_deterministic) rows);
        ( "dp_infeasible_at_30",
          match extrapolated with Some t -> t > 60.0 | None -> false );
        ("table2_exact", Harness.table2_exact ());
      ];
  }
