open Sjos_pattern
open Sjos_plan
open Sjos_obs

type algorithm =
  | Dp
  | Dpp
  | Dpp_no_lookahead
  | Dpap_eb of int
  | Dpap_ld
  | Fp
  | Big_dp of int

let name = function
  | Dp -> "DP"
  | Dpp -> "DPP"
  | Dpp_no_lookahead -> "DPP'"
  | Dpap_eb te -> Printf.sprintf "DPAP-EB(%d)" te
  | Dpap_ld -> "DPAP-LD"
  | Fp -> "FP"
  | Big_dp w -> Printf.sprintf "BigDP(%d)" w

let default_te pat = Pattern.edge_count pat
let all pat = [ Dp; Dpp; Dpap_eb (default_te pat); Dpap_ld; Fp ]

(* Status-space searches explode combinatorially with pattern size; the
   paper's queries top out at 7 nodes and the exact algorithms stay
   comfortable a little past that.  Beyond the threshold, requests for an
   exact status search are transparently re-tiered onto the subset DP,
   which is exact on everything the status searches can actually finish
   and stays sub-second at 30-40 nodes. *)
let big_pattern_threshold = 12

let effective pat = function
  | Dp | Dpp | Dpp_no_lookahead
    when Pattern.node_count pat > big_pattern_threshold ->
      Big_dp Bigdp.default_width
  | a -> a

type result = {
  algorithm : algorithm;
  plan : Plan.t;
  est_cost : float;
  opt_seconds : float;
  work : Work.t;
  degraded_from : algorithm option;
}

let optimize ?factors ?budget ~provider algorithm pat =
  (* Defensive double of the {!Pattern.create} check: a pattern wide
     enough to overflow the node bitmasks must never reach a search. *)
  if Pattern.node_count pat > Pattern.max_nodes then
    Sjos_guard.Error.fail
      (Sjos_guard.Error.Invalid_request
         (Printf.sprintf "pattern has %d nodes; the optimizer supports at most %d"
            (Pattern.node_count pat) Pattern.max_nodes));
  let requested = algorithm in
  let algorithm = effective pat algorithm in
  let ctx = Search.make_ctx ?factors ?budget ~provider pat in
  let span =
    Trace.begin_span "optimize"
      ~attrs:
        (("algorithm", Json.Str (name algorithm))
        ::
        (if requested = algorithm then []
         else [ ("requested", Json.Str (name requested)) ]))
  in
  let t0 = Clock.now_ns () in
  let est_cost, plan =
    match algorithm with
    | Dp -> Dp.run ctx
    | Dpp -> Dpp.run ctx
    | Dpp_no_lookahead -> Dpp.run ~lookahead:false ctx
    | Dpap_eb te -> Dpp.run ~expansion_bound:(Some te) ctx
    | Dpap_ld -> Dpp.run ~left_deep:true ctx
    | Fp -> Fp.run ctx
    | Big_dp w -> Bigdp.run ~width:w ctx
  in
  let opt_seconds = Clock.elapsed_seconds ~since:t0 in
  let work = ctx.Search.work in
  (* Only a completed search reaches here: one cut short by its budget
     raised above and charges nothing to the domain accumulator. *)
  Work.absorb work;
  Trace.end_span span
    ~attrs:[ ("est_cost", Json.Float est_cost); ("work", Work.to_json work) ];
  {
    algorithm;
    plan;
    est_cost;
    opt_seconds;
    work;
    degraded_from = None;
  }

let is_exact = function
  | Dp | Dpp | Dpp_no_lookahead | Big_dp _ -> true
  | Dpap_eb _ | Dpap_ld | Fp -> false

(* Anytime degradation: when the budget fires during an *exact* search,
   retry under a tier whose work is bounded *by construction*, so it can
   run outside the exhausted budget — the whole point is to always come
   back with *some* plan.  For paper-scale patterns that is DPAP-EB with
   a small Te (at most Te expansions per level).  Past the big-pattern
   threshold DPAP-EB is itself a status-space search and can blow up, so
   big patterns degrade to a narrow BigDP beam instead: its layered
   enumeration expands at most [width] masks per layer, O(width * n^2)
   work total, and the built-in greedy incumbent guarantees a plan even
   when the beam prunes everything. *)
let fallback_te pat = max 1 (min 4 (default_te pat))
let fallback_width = 16

let fallback_algorithm pat =
  if Pattern.node_count pat > big_pattern_threshold then Big_dp fallback_width
  else Dpap_eb (fallback_te pat)

let optimize_r ?factors ?(budget = Sjos_guard.Budget.unlimited) ~provider
    algorithm pat =
  match optimize ?factors ~budget ~provider algorithm pat with
  | r -> Ok r
  | exception Sjos_guard.Budget.Exhausted { resource; during } ->
      if is_exact algorithm then begin
        Trace.event "optimizer.degraded"
          ~attrs:
            [
              ("from", Json.Str (name algorithm));
              ("resource", Json.Str (Sjos_guard.Budget.resource_name resource));
            ];
        match optimize ?factors ~provider (fallback_algorithm pat) pat with
        | r -> Ok { r with degraded_from = Some algorithm }
        | exception Sjos_guard.Budget.Exhausted { resource; during } ->
            Error
              (Sjos_guard.Error.Budget_exhausted { resource; during })
      end
      else Error (Sjos_guard.Error.Budget_exhausted { resource; during })

(* ---------- physical engine selection ---------- *)

type engine = Binary | Holistic | Auto

let engine_name = function
  | Binary -> "binary"
  | Holistic -> "holistic"
  | Auto -> "auto"

let engine_of_string s =
  match String.lowercase_ascii s with
  | "binary" -> Some Binary
  | "holistic" -> Some Holistic
  | "auto" -> Some Auto
  | _ -> None

let algorithm_of_string s =
  let s = String.lowercase_ascii s in
  let positive prefix what make =
    let n = String.length prefix in
    match int_of_string_opt (String.sub s n (String.length s - n)) with
    | Some k when k > 0 -> Ok (make k)
    | _ -> Error (Printf.sprintf "expected %s<positive %s>" prefix what)
  in
  match s with
  | "dp" -> Ok Dp
  | "dpp" -> Ok Dpp
  | "dpp-nl" | "dpp'" -> Ok Dpp_no_lookahead
  | "dpap-ld" | "ld" -> Ok Dpap_ld
  | "fp" -> Ok Fp
  | "bigdp" -> Ok (Big_dp Bigdp.default_width)
  | _ when String.starts_with ~prefix:"dpap-eb:" s ->
      positive "dpap-eb:" "Te" (fun te -> Dpap_eb te)
  | _ when String.starts_with ~prefix:"bigdp:" s ->
      positive "bigdp:" "layer width" (fun w -> Big_dp w)
  | _ ->
      Error
        "expected dp, dpp, dpp-nl, dpap-eb:<Te>, dpap-ld, fp or \
         bigdp[:<width>]"

(* The holistic "search": there is exactly one holistic plan per
   pattern, so producing it is O(pattern) — but it still gets costed
   (under the same factors that price the binary plans), counted as one
   considered plan, and timed, so Auto's comparison and the cache's
   synthesized results stay uniform across engines. *)
let holistic_result ?factors ~provider algorithm pat =
  let factors =
    match factors with Some f -> f | None -> Sjos_cost.Cost_model.default
  in
  let t0 = Clock.now_ns () in
  let plan = Plan.holistic_of_pattern pat in
  let est_cost = Costing.cost factors provider pat plan in
  let work = { (Work.zero ()) with plans_considered = 1 } in
  Work.absorb work;
  {
    algorithm;
    plan;
    est_cost;
    opt_seconds = Clock.elapsed_seconds ~since:t0;
    work;
    degraded_from = None;
  }

let optimize_e ?factors ?budget ~provider ~engine algorithm pat =
  match engine with
  | Binary -> optimize_r ?factors ?budget ~provider algorithm pat
  | Holistic -> Ok (holistic_result ?factors ~provider algorithm pat)
  | Auto -> (
      match optimize_r ?factors ?budget ~provider algorithm pat with
      | Error _ as e -> e
      | Ok binary ->
          let holistic = holistic_result ?factors ~provider algorithm pat in
          (* strict inequality: ties go to the binary plan, whose cost
             formulae are the calibrated ones *)
          let winner =
            if holistic.est_cost < binary.est_cost then holistic else binary
          in
          let work = Work.copy binary.work in
          Work.merge_into work holistic.work;
          Ok { winner with work })

let result_to_json ~fingerprint pat r =
  Json.Obj
    [
      ("algorithm", Json.Str (name r.algorithm));
      ("fingerprint", Json.Str fingerprint);
      ("est_cost", Json.Float r.est_cost);
      ("opt_seconds", Json.Float r.opt_seconds);
      ("work", Work.to_json r.work);
      ( "degraded_from",
        match r.degraded_from with
        | Some a -> Json.Str (name a)
        | None -> Json.Null );
      ("plan", Json.Str (Explain.one_line pat r.plan));
    ]
