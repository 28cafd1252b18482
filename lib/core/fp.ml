open Sjos_pattern
open Sjos_cost
open Sjos_plan

type sub = { plan : Plan.t; cost : float; mask : int; card : float }

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* Best pipelined plan for the sub-pattern reachable from [center] without
   crossing back to [avoid], output ordered by [center].  Memoized on
   (center, avoid). *)
let best ctx =
  let memo : (int * int, sub) Hashtbl.t = Hashtbl.create 32 in
  let rec go center avoid =
    match Hashtbl.find_opt memo (center, avoid) with
    | Some r -> r
    | None ->
        let subtrees =
          List.filter (fun (n, _) -> n <> avoid) (Pattern.neighbors ctx.Search.pat center)
        in
        let subs = List.map (fun (n, e) -> (go n center, e)) subtrees in
        let center_card = ctx.Search.provider.Costing.node_card center in
        let scan_cost = Cost_model.index_access ctx.Search.factors center_card in
        let result =
          if subs = [] then
            {
              plan = Plan.scan center;
              cost = scan_cost;
              mask = 1 lsl center;
              card = center_card;
            }
          else begin
            let candidate order =
              (* the permutation scan is FP's inner loop; poll the
                 deadline/cancellation budget here *)
              Search.check_budget ctx;
              let acc =
                ref
                  {
                    plan = Plan.scan center;
                    cost = scan_cost;
                    mask = 1 lsl center;
                    card = center_card;
                  }
              in
              List.iter
                (fun ((sub : sub), (e : Pattern.edge)) ->
                  let merged_mask = !acc.mask lor sub.mask in
                  let merged_card =
                    ctx.Search.provider.Costing.cluster_card merged_mask
                  in
                  (* an accumulated cluster on the ancestor side keeps
                     its order under Stack-Tree-Anc; on the descendant
                     side, under Stack-Tree-Desc *)
                  let algo, (anc : sub), (desc : sub) =
                    if e.Pattern.anc = center then
                      (Plan.Stack_tree_anc, !acc, sub)
                    else (Plan.Stack_tree_desc, sub, !acc)
                  in
                  let plan =
                    Plan.join ~anc_side:anc.plan ~desc_side:desc.plan ~edge:e
                      ~algo
                  in
                  let join_cost =
                    Costing.join_cost ctx.Search.factors algo ~anc:anc.card
                      ~output:merged_card
                  in
                  acc :=
                    {
                      plan;
                      cost = !acc.cost +. sub.cost +. join_cost;
                      mask = merged_mask;
                      card = merged_card;
                    })
                order;
              let w = ctx.Search.work in
              w.Sjos_obs.Work.plans_considered <-
                w.Sjos_obs.Work.plans_considered + 1;
              !acc
            in
            List.fold_left
              (fun best order ->
                let c = candidate order in
                match best with
                | Some (b : sub) when b.cost <= c.cost -> Some b
                | _ -> Some c)
              None (permutations subs)
            |> Option.get
          end
        in
        Hashtbl.replace memo (center, avoid) result;
        result
  in
  go

let best_ordered_by ctx node =
  let r = (best ctx) node (-1) in
  (r.cost, r.plan)

let run ctx =
  let span = Sjos_obs.Trace.begin_span "fp.search" in
  let go = best ctx in
  let result =
    match Pattern.order_by ctx.Search.pat with
    | Some r ->
        let s = go r (-1) in
        (s.cost, s.plan)
    | None ->
        let n = Pattern.node_count ctx.Search.pat in
        let best_result = ref None in
        for center = 0 to n - 1 do
          let s = go center (-1) in
          match !best_result with
          | Some (c, _) when c <= s.cost -> ()
          | _ -> best_result := Some (s.cost, s.plan)
        done;
        Option.get !best_result
  in
  Sjos_obs.Trace.end_span span
    ~attrs:
      [
        ( "considered",
          Sjos_obs.Json.Int ctx.Search.work.Sjos_obs.Work.plans_considered );
        ("best_cost", Sjos_obs.Json.Float (fst result));
      ];
  result
