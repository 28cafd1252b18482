open Sjos_pattern
open Sjos_cost
open Sjos_plan

let charge ctx n =
  let w = ctx.Search.work in
  w.Sjos_obs.Work.plans_considered <- w.Sjos_obs.Work.plans_considered + n

(* One walk from the start status to a complete plan: [choose_edge n]
   picks one of the [n] remaining edges, [choose_algo ()] its join
   algorithm. *)
let walk ctx ~choose_edge ~choose_algo =
  let rec loop (s : Status.t) =
    if Status.is_final s then Search.finalize ctx s
    else begin
      let remaining = Search.remaining_edges ctx s in
      let edge_idx, e =
        List.nth remaining (choose_edge (List.length remaining))
      in
      let cu = Status.cluster_of s e.Pattern.anc in
      let cv = Status.cluster_of s e.Pattern.desc in
      (* Sort any input that is not ordered by its join node — this is what
         makes arbitrary join orders legal, and expensive. *)
      let prepare (c : Status.cluster) node =
        if Plan.ordered_by c.Status.plan = node then (c.Status.plan, 0.0)
        else
          ( Plan.sort c.Status.plan ~by:node,
            Cost_model.sort ctx.Search.factors c.Status.card )
      in
      let anc_side, anc_sort = prepare cu e.Pattern.anc in
      let desc_side, desc_sort = prepare cv e.Pattern.desc in
      let algo = choose_algo () in
      let card =
        ctx.Search.provider.Costing.cluster_card
          (cu.Status.mask lor cv.Status.mask)
      in
      let join_cost =
        Costing.join_cost ctx.Search.factors algo ~anc:cu.Status.card
          ~output:card
      in
      loop
        (Search.step s ~edge_idx cu cv ~card
           ~plan:(Plan.join ~anc_side ~desc_side ~edge:e ~algo)
           ~cost:(s.Status.cost +. anc_sort +. desc_sort +. join_cost))
    end
  in
  loop (Search.start ctx)

let generate rng ctx =
  let result =
    walk ctx ~choose_edge:(Random.State.int rng) ~choose_algo:(fun () ->
        if Random.State.bool rng then Plan.Stack_tree_anc
        else Plan.Stack_tree_desc)
  in
  (* one considered plan per join step: a walk joins every edge once *)
  charge ctx (Array.length ctx.Search.edges);
  result

let sample ?(seed = 42) ctx k =
  let rng = Random.State.make [| seed |] in
  List.init k (fun _ -> generate rng ctx)

let pick ?seed ctx k better =
  if k < 1 then invalid_arg "Random_plan: need at least one sample";
  match sample ?seed ctx k with
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun (bc, bp) (c, p) -> if better c bc then (c, p) else (bc, bp))
        first rest

let worst_of ?seed ctx k = pick ?seed ctx k (fun c bc -> c > bc)
let best_of ?seed ctx k = pick ?seed ctx k (fun c bc -> c < bc)

(* ---------- local search over walks ----------

   A walk is determined by its decisions (edge index, then algorithm, per
   step).  Decisions are replayed from a prefix list and drawn at random
   once the prefix runs out, which gives genotype-style neighbors: keep a
   prefix, replan the suffix. *)

type decider = {
  rng : Random.State.t;
  mutable prefix : int list;  (* decisions to replay *)
  mutable taken : int list;  (* all decisions, reversed *)
}

let decide d bound =
  let v =
    match d.prefix with
    | x :: rest ->
        d.prefix <- rest;
        x mod bound
    | [] -> Random.State.int d.rng bound
  in
  d.taken <- v :: d.taken;
  v

(* One complete plan, counted as one considered plan. *)
let plan_from ctx rng prefix =
  let d = { rng; prefix; taken = [] } in
  let cost, plan =
    walk ctx ~choose_edge:(decide d) ~choose_algo:(fun () ->
        if decide d 2 = 0 then Plan.Stack_tree_anc else Plan.Stack_tree_desc)
  in
  charge ctx 1;
  (cost, plan, List.rev d.taken)

(* Neighbor: keep a random prefix of the decision list, replan the rest. *)
let neighbor ctx rng genome =
  let cut =
    match genome with [] -> 0 | l -> Random.State.int rng (List.length l)
  in
  let prefix = List.filteri (fun i _ -> i < cut) genome in
  plan_from ctx rng prefix

let restarts = 5
let max_stall = 30

let iterative_improvement ?(seed = 11) ctx =
  let rng = Random.State.make [| seed |] in
  let best = ref None in
  let note (cost, plan) =
    match !best with
    | Some (c, _) when c <= cost -> ()
    | _ -> best := Some (cost, plan)
  in
  for _ = 1 to restarts do
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

let initial_temperature = 0.1
let cooling = 0.95
let steps = 200

let simulated_annealing ?(seed = 13) ctx =
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
