open Sjos_xml
open Sjos_storage

type edge = { anc : int; desc : int; axis : Axes.axis }

type t = {
  labels : Candidate.spec array;
  edge_list : edge list;
  adjacency : (int * edge) list array;  (* per node: (other endpoint, edge) *)
  tree_parent : (int * edge) option array;  (* parent in the rooted tree *)
  order_by : int option;
}

let node_count t = Array.length t.labels
let edge_count t = List.length t.edge_list
let label t i = t.labels.(i)
let labels t = Array.copy t.labels
let edges t = t.edge_list
let order_by t = t.order_by

(* Bijective base-26: A..Z, AA..AZ, BA.. — never collides with a node whose
   label is literally "N27", unlike the old "N%d" fallback. *)
let name _t i =
  let rec go i acc =
    let acc = String.make 1 (Char.chr (Char.code 'A' + (i mod 26))) ^ acc in
    if i < 26 then acc else go ((i / 26) - 1) acc
  in
  go i ""

(* Node sets, cluster masks and [(1 lsl n) - 1] full-masks all live in
   one native [int]; [1 lsl (int_size - 1)] is the sign bit and
   [int_size - 1] bits would make the full mask overflow to [-1]'s
   neighborhood — so the last safely addressable node index is
   [int_size - 3], i.e. 61 nodes on a 64-bit platform. *)
let max_nodes = Sys.int_size - 2

let create ?order_by ~labels ~edges () =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Pattern.create: empty pattern";
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf
         "Pattern.create: %d nodes exceed the %d-node bitmask limit" n
         max_nodes);
  if Array.length edges <> n - 1 then
    invalid_arg "Pattern.create: a tree on n nodes has n-1 edges";
  (match order_by with
  | Some i when i < 0 || i >= n -> invalid_arg "Pattern.create: bad order_by"
  | _ -> ());
  let edge_list =
    Array.to_list edges
    |> List.map (fun (anc, axis, desc) ->
           if anc < 0 || anc >= n || desc < 0 || desc >= n || anc = desc then
             invalid_arg "Pattern.create: bad edge endpoints";
           { anc; axis; desc })
  in
  let adjacency = Array.make n [] in
  List.iter
    (fun e ->
      adjacency.(e.anc) <- (e.desc, e) :: adjacency.(e.anc);
      adjacency.(e.desc) <- (e.anc, e) :: adjacency.(e.desc))
    edge_list;
  Array.iteri (fun i l -> adjacency.(i) <- List.rev l) adjacency;
  (* Check the edges form a tree rooted at 0 with edges directed away from
     the root, and record each node's tree parent. *)
  let tree_parent = Array.make n None in
  let visited = Array.make n false in
  let rec dfs i =
    visited.(i) <- true;
    List.iter
      (fun (j, e) ->
        if not visited.(j) then begin
          if e.anc <> i then
            invalid_arg
              (Printf.sprintf
                 "Pattern.create: edge %d->%d points toward the root" e.anc
                 e.desc);
          tree_parent.(j) <- Some (i, e);
          dfs j
        end)
      adjacency.(i)
  in
  dfs 0;
  if not (Array.for_all Fun.id visited) then
    invalid_arg "Pattern.create: pattern is not connected";
  { labels = Array.copy labels; edge_list; adjacency; tree_parent; order_by }

let with_order_by t order_by =
  (match order_by with
  | Some i when i < 0 || i >= node_count t ->
      invalid_arg "Pattern.with_order_by: bad node"
  | _ -> ());
  { t with order_by }

let edge_between t i j =
  List.find_map
    (fun (k, e) -> if k = j then Some e else None)
    t.adjacency.(i)

let neighbors t i = t.adjacency.(i)
let parent_of t i = t.tree_parent.(i)

let children_of t i =
  List.filter_map
    (fun (j, e) -> if e.anc = i && e.desc = j then Some (j, e) else None)
    t.adjacency.(i)

let matches_mapping t doc h =
  ignore doc;
  Array.length h = node_count t
  && Array.for_all2 Candidate.matches t.labels h
  && List.for_all
       (fun e -> Axes.related e.axis ~anc:h.(e.anc) ~desc:h.(e.desc))
       t.edge_list

let is_path t =
  let ok = ref true in
  for i = 0 to node_count t - 1 do
    if List.length (children_of t i) > 1 then ok := false
  done;
  !ok

let depth t =
  let rec go i = List.fold_left (fun m (j, _) -> max m (1 + go j)) 0 (children_of t i) in
  go 0

let to_string t =
  let buf = Buffer.create 64 in
  let rec emit i =
    Buffer.add_string buf (Candidate.spec_to_string t.labels.(i));
    match children_of t i with
    | [] -> ()
    | kids ->
        Buffer.add_char buf '(';
        List.iteri
          (fun k (j, e) ->
            if k > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Axes.axis_to_string e.axis);
            emit j)
          kids;
        Buffer.add_char buf ')'
  in
  emit 0;
  (match t.order_by with
  | Some i -> Buffer.add_string buf (Printf.sprintf " order by %s" (name t i))
  | None -> ());
  Buffer.contents buf
