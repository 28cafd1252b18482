open Sjos_xml

(* The small-domain attributes take a few dozen distinct values across
   hundreds of thousands of nodes: every node shares one immutable pair
   per value instead of allocating its own. *)
let pairs name n = Array.init n (fun v -> (name, string_of_int v))
let level_attrs = pairs "aLevel" 15  (* eNest levels stop at 14 *)
let four_attrs = pairs "aFour" 4
let sixty_four_attrs = pairs "aSixtyFour" 64
let ref_attrs = Array.map (fun a -> [ a ]) (pairs "aRef" 64)

let generate ?(seed = 3) ~target_nodes () =
  if target_nodes < 4 then invalid_arg "Mbench.generate: target too small";
  let rng = Rng.create seed in
  let b = Builder.create () in
  let budget = ref target_nodes in
  let unique = ref 0 in
  let attrs level =
    let u = !unique in
    incr unique;
    [
      ("aUnique", string_of_int u);
      level_attrs.(level);
      four_attrs.(u mod 4);
      sixty_four_attrs.(u mod 64);
    ]
  in
  let rec nest level =
    Builder.open_element b ~attrs:(attrs level) "eNest";
    decr budget;
    if Rng.float rng < 0.1 && !budget > 0 then begin
      Builder.leaf ~attrs:ref_attrs.(Rng.int rng 64) b "eOccasional";
      decr budget
    end;
    (* fanout shrinks with depth so the tree is deep but bounded *)
    let fanout =
      if level >= 14 then 0
      else if !budget <= 0 then 0
      else 1 + Rng.geometric rng ~p:0.55 ~max:3
    in
    for _ = 1 to fanout do
      if !budget > 0 then nest (level + 1)
    done;
    Builder.close_element b
  in
  (* one eNest root with as many level-1 subtrees as the budget allows, so
     large targets are actually met (a single recursive tree saturates) *)
  Builder.open_element b ~attrs:(attrs 0) "eNest";
  decr budget;
  while !budget > 2 do
    nest 1
  done;
  Builder.close_element b;
  Builder.finish b
