open Sjos_pattern
open Sjos_cost
open Sjos_plan

(* A plan is determined by the sequence of decisions taken while joining
   the remaining edges one by one.  Decisions are consumed from a prefix
   list and extended randomly once the prefix runs out, which gives us
   genotype-style neighbors: keep a prefix, replan the suffix. *)

type decider = {
  rng : Random.State.t;
  mutable prefix : int list;  (* decisions to replay *)
  mutable taken : int list;  (* all decisions, reversed *)
}

let decide d bound =
  if bound <= 0 then invalid_arg "Randomized.decide: empty choice";
  let v =
    match d.prefix with
    | x :: rest ->
        d.prefix <- rest;
        x mod bound
    | [] -> Random.State.int d.rng bound
  in
  d.taken <- v :: d.taken;
  v

(* Build one complete plan following the decider; mirrors
   Random_plan.generate but with recorded decisions. *)
let build ctx d =
  let rec loop (s : Status.t) =
    if Status.is_final s then Search.finalize ctx s
    else begin
      let remaining = Search.remaining_edges ctx s in
      let edge_idx, e =
        List.nth remaining (decide d (List.length remaining))
      in
      let cu = Status.cluster_of s e.Pattern.anc in
      let cv = Status.cluster_of s e.Pattern.desc in
      let prepare (c : Status.cluster) node =
        if c.Status.order = node then (c.Status.plan, 0.0)
        else
          ( Plan.sort c.Status.plan ~by:node,
            Cost_model.sort ctx.Search.factors c.Status.card )
      in
      let anc_plan, anc_sort = prepare cu e.Pattern.anc in
      let desc_plan, desc_sort = prepare cv e.Pattern.desc in
      let algo =
        if decide d 2 = 0 then Plan.Stack_tree_anc else Plan.Stack_tree_desc
      in
      let merged_mask = cu.Status.mask lor cv.Status.mask in
      let merged_card = ctx.Search.provider.Costing.cluster_card merged_mask in
      let join_cost =
        match algo with
        | Plan.Stack_tree_anc ->
            Cost_model.stack_tree_anc ctx.Search.factors ~anc:cu.Status.card
              ~output:merged_card
        | Plan.Stack_tree_desc ->
            Cost_model.stack_tree_desc ctx.Search.factors ~anc:cu.Status.card
      in
      let order =
        match algo with
        | Plan.Stack_tree_anc -> e.Pattern.anc
        | Plan.Stack_tree_desc -> e.Pattern.desc
      in
      let merged =
        {
          Status.mask = merged_mask;
          order;
          plan = Plan.join ~anc_side:anc_plan ~desc_side:desc_plan ~edge:e ~algo;
          card = merged_card;
        }
      in
      let clusters =
        merged
        :: List.filter
             (fun (c : Status.cluster) ->
               c.Status.mask <> cu.Status.mask && c.Status.mask <> cv.Status.mask)
             s.Status.clusters
        |> List.sort (fun (a : Status.cluster) b ->
               compare a.Status.mask b.Status.mask)
      in
      loop
        {
          Status.clusters;
          joined = s.Status.joined lor (1 lsl edge_idx);
          cost = s.Status.cost +. anc_sort +. desc_sort +. join_cost;
        }
    end
  in
  loop
    (Status.start ~factors:ctx.Search.factors ~provider:ctx.Search.provider
       ctx.Search.pat)

let plan_from ctx rng prefix =
  let d = { rng; prefix; taken = [] } in
  let cost, plan = build ctx d in
  let w = ctx.Search.work in
  w.Sjos_obs.Work.plans_considered <-
    w.Sjos_obs.Work.plans_considered + 1;
  (cost, plan, List.rev d.taken)

(* Neighbor: keep a random prefix of the decision list, replan the rest. *)
let neighbor ctx rng genome =
  let cut =
    match genome with [] -> 0 | l -> Random.State.int rng (List.length l)
  in
  let prefix = List.filteri (fun i _ -> i < cut) genome in
  plan_from ctx rng prefix

let iterative_improvement ?(seed = 11) ?(restarts = 5) ?(max_stall = 30) ctx =
  let rng = Random.State.make [| seed |] in
  let best = ref None in
  let note (cost, plan) =
    match !best with
    | Some (c, _) when c <= cost -> ()
    | _ -> best := Some (cost, plan)
  in
  for _ = 1 to max 1 restarts do
    let current = ref (plan_from ctx rng []) in
    let stall = ref 0 in
    while !stall < max_stall do
      let ccost, _, genome = !current in
      let ncost, nplan, ngenome = neighbor ctx rng genome in
      if ncost < ccost then begin
        current := (ncost, nplan, ngenome);
        stall := 0
      end
      else incr stall
    done;
    let cost, plan, _ = !current in
    note (cost, plan)
  done;
  Option.get !best

let simulated_annealing ?(seed = 13) ?(initial_temperature = 0.1)
    ?(cooling = 0.95) ?(steps = 200) ctx =
  let rng = Random.State.make [| seed |] in
  let cost0, plan0, genome0 = plan_from ctx rng [] in
  let best = ref (cost0, plan0) in
  let current = ref (cost0, plan0, genome0) in
  let temperature = ref (Float.max 1.0 (initial_temperature *. cost0)) in
  for _ = 1 to steps do
    let ccost, _, genome = !current in
    let ncost, nplan, ngenome = neighbor ctx rng genome in
    let accept =
      ncost < ccost
      || Random.State.float rng 1.0 < exp (-.(ncost -. ccost) /. !temperature)
    in
    if accept then begin
      current := (ncost, nplan, ngenome);
      if ncost < fst !best then best := (ncost, nplan)
    end;
    temperature := Float.max 1e-6 (!temperature *. cooling)
  done;
  !best
