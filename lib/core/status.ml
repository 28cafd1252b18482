open Sjos_pattern
open Sjos_cost
open Sjos_plan

type cluster = { mask : int; plan : Plan.t; card : float }
type t = { clusters : cluster list; joined : int; cost : float }
type key = { parts : (int * int) list; kjoined : int }

let key t =
  { parts = List.map (fun c -> (c.mask, Plan.ordered_by c.plan)) t.clusters;
    kjoined = t.joined }

(* Word-parallel popcount (SWAR): O(1) per word instead of one loop
   iteration per bit — this runs on every expansion and every left-deep
   check, and patterns can now reach 61 nodes. *)
let popcount m =
  let m = m - ((m lsr 1) land 0x5555555555555555) in
  let m = (m land 0x3333333333333333) + ((m lsr 2) land 0x3333333333333333) in
  let m = (m + (m lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (m * 0x0101010101010101) lsr 56

let level t = popcount t.joined
let is_final t = match t.clusters with [ _ ] -> true | _ -> false

let cluster_of t node =
  List.find (fun c -> c.mask land (1 lsl node) <> 0) t.clusters

let cluster_map ~n t =
  let map = Array.make n None in
  List.iter
    (fun c ->
      let m = ref c.mask in
      while !m <> 0 do
        let low = !m land - !m in
        (* index of the lowest set bit via de-looped popcount *)
        map.(popcount (low - 1)) <- Some c;
        m := !m lxor low
      done)
    t.clusters;
  Array.map
    (function
      | Some c -> c
      | None -> invalid_arg "Status.cluster_map: node in no cluster")
    map

let start ~factors ~provider pat =
  let n = Pattern.node_count pat in
  let clusters = ref [] in
  let cost = ref 0.0 in
  for i = n - 1 downto 0 do
    let card = provider.Costing.node_card i in
    cost := !cost +. Cost_model.index_access factors card;
    clusters :=
      { mask = 1 lsl i; plan = Plan.scan i; card } :: !clusters
  done;
  { clusters = !clusters; joined = 0; cost = !cost }

let multi_cluster_count t =
  List.length (List.filter (fun c -> popcount c.mask > 1) t.clusters)

let pp pat ppf t =
  let pp_cluster ppf c =
    let members =
      List.filter_map
        (fun i ->
          if c.mask land (1 lsl i) <> 0 then Some (Pattern.name pat i) else None)
        (List.init (Pattern.node_count pat) Fun.id)
    in
    Fmt.pf ppf "{%s|by %s}" (String.concat "" members)
      (Pattern.name pat (Plan.ordered_by c.plan))
  in
  Fmt.pf ppf "@[%a cost=%.1f@]" (Fmt.list ~sep:Fmt.sp pp_cluster) t.clusters
    t.cost
