(* Large-pattern optimizer tier: bottom-up subset DP over connected
   node-masks, after DPconv's formulation of join ordering as layered
   subset dynamic programming.

   The paper's status search keeps whole partitions of the pattern as
   states, which explodes combinatorially past ~10 nodes (Table 2's
   queries top out at 7).  For tree patterns the per-cluster optimum is
   independent of how the rest of the pattern is partitioned: a cluster
   is a connected subtree, its consumed edges are exactly its internal
   edges, and its useful sort targets (endpoints of still-pending edges)
   are its boundary nodes — none of which depends on the other clusters.
   So the memo can be keyed on [(mask, order)] alone: the best sub-plan
   producing exactly the nodes of [mask], ordered by [order].

   Enumeration is layered by popcount ("convolution layers"): every
   connected mask of size [k] splits at each internal edge [e] into the
   rooted subtree below [e.desc] intersected with the mask and its
   complement — both connected, both strictly smaller, so both already
   memoized.  Three devices bound the work on 30-40-node patterns:

   - cost-bound pruning against an incumbent: a greedy O(n^2) complete
     plan seeds the upper bound, and any entry whose cost alone (a lower
     bound on any completion, since every cluster's cost is part of the
     final sum) reaches it is dropped ([pruned_bound]);
   - a per-layer width cap: after a layer is filled, only the [width]
     cheapest masks (tie-broken by mask value — deterministic) survive
     to seed the next layer.  Layers of patterns with <= 10 nodes never
     exceed the default width, so the tier is exact there — the
     differential gate in test/bench relies on this;
   - budget polling through {!Search.check_budget} once per expanded
     mask, so the guard's deadline/expansion ceilings fire inside the
     enumeration exactly as they do in the status search.

   Everything is serial and iteration-order-free: masks are processed in
   sorted order and hashtables are used only for point lookups, so the
   work counters are deterministic across runs and domain counts. *)

open Sjos_pattern
open Sjos_cost
open Sjos_plan
module Work = Sjos_obs.Work

let default_width = 1024

type entry = { cost : float; plan : Plan.t; card : float }

(* Index of the (single) set bit of a one-bit mask. *)
let bit_index m = Status.popcount (m - 1)

let run ?(width = default_width) (ctx : Search.ctx) =
  if width < 1 then invalid_arg "Bigdp.run: width must be positive";
  let pat = ctx.Search.pat in
  let n = Pattern.node_count pat in
  let full = (1 lsl n) - 1 in
  let w = ctx.Search.work in
  let factors = ctx.Search.factors in
  let provider = ctx.Search.provider in
  let edges = ctx.Search.edges in
  (* adjacency and rooted-subtree masks *)
  let adj = Array.make n 0 in
  Array.iter
    (fun (e : Pattern.edge) ->
      adj.(e.Pattern.anc) <- adj.(e.Pattern.anc) lor (1 lsl e.Pattern.desc);
      adj.(e.Pattern.desc) <- adj.(e.Pattern.desc) lor (1 lsl e.Pattern.anc))
    edges;
  let subtree = Array.make n 0 in
  let rec fill i =
    let m =
      List.fold_left
        (fun acc (j, _) -> acc lor fill j)
        (1 lsl i) (Pattern.children_of pat i)
    in
    subtree.(i) <- m;
    m
  in
  ignore (fill 0);
  let card_memo : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let card mask =
    match Hashtbl.find_opt card_memo mask with
    | Some c -> c
    | None ->
        (* singletons use the index cardinality, like [Status.start] *)
        let c =
          if mask land (mask - 1) = 0 then
            provider.Costing.node_card (bit_index mask)
          else provider.Costing.cluster_card mask
        in
        Hashtbl.replace card_memo mask c;
        c
  in
  (* ---------- greedy incumbent: a complete plan in O(n^2) ----------
     From each start node, repeatedly apply the cheapest legal move
     absorbing one more scan (re-sorting the growing cluster first when
     its order does not match the edge).  Never uses FP — FP's
     permutation scan is factorial on bushy stars, the very shape this
     tier exists for. *)
  let greedy_from start =
    let mask = ref (1 lsl start) in
    let plan = ref (Plan.scan start) in
    let cost = ref (Cost_model.index_access factors (card !mask)) in
    while !mask <> full do
      let best = ref None in
      Array.iter
        (fun (e : Pattern.edge) ->
          let a_in = !mask land (1 lsl e.Pattern.anc) <> 0 in
          let d_in = !mask land (1 lsl e.Pattern.desc) <> 0 in
          if a_in <> d_in then begin
            let cluster_card = card !mask in
            let other = if a_in then e.Pattern.desc else e.Pattern.anc in
            let scan_cost = Cost_model.index_access factors (card (1 lsl other)) in
            let need = if a_in then e.Pattern.anc else e.Pattern.desc in
            let presort =
              if Plan.ordered_by !plan <> need then
                Cost_model.sort factors cluster_card
              else 0.0
            in
            let merged = !mask lor (1 lsl other) in
            let anc_card =
              if a_in then cluster_card else card (1 lsl e.Pattern.anc)
            in
            let merged_card = card merged in
            List.iter
              (fun algo ->
                let join_cost =
                  Costing.join_cost factors algo ~anc:anc_card
                    ~output:merged_card
                in
                let total = presort +. scan_cost +. join_cost in
                match !best with
                | Some (c, _, _, _) when c <= total -> ()
                | _ -> best := Some (total, e, other, algo))
              [ Plan.Stack_tree_anc; Plan.Stack_tree_desc ]
          end)
        edges;
      match !best with
      | None -> invalid_arg "Bigdp: pattern is not connected"
      | Some (move_cost, e, other, algo) ->
          let a_in = other = e.Pattern.desc in
          let need = if a_in then e.Pattern.anc else e.Pattern.desc in
          let cluster_plan =
            if Plan.ordered_by !plan <> need then Plan.sort !plan ~by:need
            else !plan
          in
          let anc_side, desc_side =
            if a_in then (cluster_plan, Plan.scan other)
            else (Plan.scan other, cluster_plan)
          in
          plan := Plan.join ~anc_side ~desc_side ~edge:e ~algo;
          mask := !mask lor (1 lsl other);
          cost := !cost +. move_cost
    done;
    w.Work.plans_considered <- w.Work.plans_considered + 1;
    Search.sort_for_order_by ctx ~card:(card full) (!cost, !plan)
  in
  let incumbent = ref (greedy_from 0) in
  for c = 1 to n - 1 do
    let ((cost, _) as cand) = greedy_from c in
    if cost < fst !incumbent then incumbent := cand
  done;
  let ub = ref (fst !incumbent) in
  if n = 1 then begin
    (* single-node pattern: the scan is the plan (order-by is node 0) *)
    w.Work.expansions <- w.Work.expansions + 1;
    !incumbent
  end
  else begin
    (* ---------- the subset DP ---------- *)
    let tbl : (int * int, entry) Hashtbl.t = Hashtbl.create 1024 in
    let emit mask cost plan =
      if cost >= !ub then
        w.Work.pruned_bound <- w.Work.pruned_bound + 1
      else begin
        let order = Plan.ordered_by plan in
        w.Work.plans_considered <- w.Work.plans_considered + 1;
        w.Work.statuses_generated <- w.Work.statuses_generated + 1;
        match Hashtbl.find_opt tbl (mask, order) with
        | Some e when e.cost <= cost -> ()
        | _ -> Hashtbl.replace tbl (mask, order) { cost; plan; card = card mask }
      end
    in
    for i = 0 to n - 1 do
      let c = card (1 lsl i) in
      Hashtbl.replace tbl
        (1 lsl i, i)
        {
          cost = Cost_model.index_access factors c;
          plan = Plan.scan i;
          card = c;
        }
    done;
    (* nodes of [mask] in increasing index order *)
    let mask_bits mask =
      let acc = ref [] in
      let m = ref mask in
      while !m <> 0 do
        let low = !m land - !m in
        acc := bit_index low :: !acc;
        m := !m lxor low
      done;
      List.rev !acc
    in
    (* cheapest surviving entry of a mask, any order (ties to the lower
       order index — [mask_bits] is increasing) *)
    let best_of mask =
      List.fold_left
        (fun best o ->
          match (Hashtbl.find_opt tbl (mask, o), best) with
          | None, b -> b
          | Some e, None -> Some (o, e)
          | Some e, Some (_, be) -> if e.cost < be.cost then Some (o, e) else best)
        None (mask_bits mask)
    in
    let expand_mask mask =
      Search.check_budget ctx;
      w.Work.expansions <- w.Work.expansions + 1;
      let bits = mask_bits mask in
      (* joins: split at each internal edge *)
      Array.iter
        (fun (e : Pattern.edge) ->
          if
            mask land (1 lsl e.Pattern.anc) <> 0
            && mask land (1 lsl e.Pattern.desc) <> 0
          then begin
            let sd = mask land subtree.(e.Pattern.desc) in
            let sa = mask lxor sd in
            match
              ( Hashtbl.find_opt tbl (sa, e.Pattern.anc),
                Hashtbl.find_opt tbl (sd, e.Pattern.desc) )
            with
            | Some ea, Some ed ->
                let out_card = card mask in
                let join algo =
                  emit mask
                    (ea.cost +. ed.cost
                    +. Costing.join_cost factors algo ~anc:ea.card
                         ~output:out_card)
                    (Plan.join ~anc_side:ea.plan ~desc_side:ed.plan ~edge:e
                       ~algo)
                in
                join Plan.Stack_tree_anc;
                join Plan.Stack_tree_desc
            | _ -> () (* a half was pruned away; skip this split *)
          end)
        edges;
      (* sorts: from the cheapest entry toward every boundary node (the
         mask's useful sort targets).  One step suffices: sort cost
         depends only on the cardinality, never on the source order, so
         a sort of a sort is never cheaper. *)
      if mask <> full then
        match best_of mask with
        | None -> ()
        | Some (bo, be) ->
            let scost = be.cost +. Cost_model.sort factors be.card in
            List.iter
              (fun o ->
                if o <> bo && adj.(o) land lnot mask <> 0 then
                  emit mask scost (Plan.sort be.plan ~by:o))
              bits
    in
    (* Layered enumeration: layer k holds the expanded connected masks
       of popcount k; candidates for k+1 extend each by one frontier
       node.  Over-width layers are cut *before* expansion — candidates
       are ranked by the best entry cost among their generating parents
       (ties by mask value), so the cheap regions of the lattice grow
       first and the cut costs no expansion work.  Entry-less parents
       rank last but are still legal seeds: their supersets can split
       into smaller memoized halves, so dropping them eagerly could
       disconnect the enumeration.  Under the cap every candidate is
       expanded, which keeps the tier exact on small patterns. *)
    let layer = ref (List.init n (fun i -> 1 lsl i)) in
    for _size = 2 to n do
      let scores : (int, float) Hashtbl.t = Hashtbl.create 1024 in
      List.iter
        (fun mask ->
          let pscore =
            match best_of mask with Some (_, e) -> e.cost | None -> infinity
          in
          let frontier =
            List.fold_left (fun acc i -> acc lor adj.(i)) 0 (mask_bits mask)
            land lnot mask
          in
          List.iter
            (fun j ->
              let c = mask lor (1 lsl j) in
              match Hashtbl.find_opt scores c with
              | Some s when s <= pscore -> ()
              | _ -> Hashtbl.replace scores c pscore)
            (mask_bits frontier))
        !layer;
      (* sorted by (score, mask): a total order, so the fold's hashtable
         iteration order never shows *)
      let candidates =
        Hashtbl.fold (fun c s acc -> (s, c) :: acc) scores []
        |> List.sort compare
      in
      let kept, dropped =
        let rec split i = function
          | [] -> ([], 0)
          | x :: tl ->
              if i < width then
                let k, d = split (i + 1) tl in
                (x :: k, d)
              else ([], List.length (x :: tl))
        in
        split 0 candidates
      in
      w.Work.pruned_bound <- w.Work.pruned_bound + dropped;
      List.iter (fun (_, c) -> expand_mask c) kept;
      layer := List.map snd kept
    done;
    (* finalize the full mask against the incumbent: the cheapest entry
       after the order-by sort, if any *)
    let final =
      List.fold_left
        (fun best o ->
          match Hashtbl.find_opt tbl (full, o) with
          | None -> best
          | Some e -> (
              let ((c, _) as f) =
                Search.sort_for_order_by ctx ~card:e.card (e.cost, e.plan)
              in
              match best with
              | Some (bc, _) when bc <= c -> best
              | _ -> Some f))
        None (mask_bits full)
    in
    match final with
    | Some (c, p) when c < fst !incumbent -> (c, p)
    | _ -> !incumbent
  end

