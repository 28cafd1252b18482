(* Deterministic work accounting.

   Each domain owns one plain-mutable-int accumulator (Domain.DLS), so
   the hot-path cost of charging work is a field write — no atomics, no
   locks, no branches on an enablement flag.  Determinism comes from
   what is counted, not from how it is stored: every counter is defined
   so that its total is invariant under any partitioning of the same
   logical work across domains (integer sums are order-independent, and
   the kernels charge partition-invariant quantities — see
   {!Stack_tree}'s drain accounting).  The domain pool merges each
   task's delta into the caller at its barrier ({!Sjos_par.Pool.run}),
   so a snapshot taken on the driving domain sees identical totals at
   any [SJOS_DOMAINS]. *)

type t = {
  mutable comparisons : int;
  mutable tuples_emitted : int;
  mutable items_skipped : int;
  mutable candidates_scanned : int;
  mutable stack_ops : int;
  mutable io_items : int;
  mutable sorted_items : int;
  mutable sort_cost : float;
  mutable expansions : int;
  mutable plans_considered : int;
  mutable page_touches : int;
  mutable statuses_generated : int;
  mutable pruned_bound : int;
  mutable pruned_deadend : int;
  mutable pruned_left_deep : int;
}

let zero () =
  {
    comparisons = 0;
    tuples_emitted = 0;
    items_skipped = 0;
    candidates_scanned = 0;
    stack_ops = 0;
    io_items = 0;
    sorted_items = 0;
    sort_cost = 0.0;
    expansions = 0;
    plans_considered = 0;
    page_touches = 0;
    statuses_generated = 0;
    pruned_bound = 0;
    pruned_deadend = 0;
    pruned_left_deep = 0;
  }

(* Every integer counter by name, with its accessors, in report order:
   the bulk operations below (reset, merge, diff, JSON) walk this one
   table, and [sort_cost], the only float, is handled beside it. *)
let counters : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("comparisons", (fun w -> w.comparisons), fun w v -> w.comparisons <- v);
    ("tuples_emitted", (fun w -> w.tuples_emitted), fun w v -> w.tuples_emitted <- v);
    ("items_skipped", (fun w -> w.items_skipped), fun w v -> w.items_skipped <- v);
    ( "candidates_scanned",
      (fun w -> w.candidates_scanned),
      fun w v -> w.candidates_scanned <- v );
    ("stack_ops", (fun w -> w.stack_ops), fun w v -> w.stack_ops <- v);
    ("io_items", (fun w -> w.io_items), fun w v -> w.io_items <- v);
    ("sorted_items", (fun w -> w.sorted_items), fun w v -> w.sorted_items <- v);
    ("expansions", (fun w -> w.expansions), fun w v -> w.expansions <- v);
    ( "plans_considered",
      (fun w -> w.plans_considered),
      fun w v -> w.plans_considered <- v );
    ("page_touches", (fun w -> w.page_touches), fun w v -> w.page_touches <- v);
    ( "statuses_generated",
      (fun w -> w.statuses_generated),
      fun w v -> w.statuses_generated <- v );
    ("pruned_bound", (fun w -> w.pruned_bound), fun w v -> w.pruned_bound <- v);
    ("pruned_deadend", (fun w -> w.pruned_deadend), fun w v -> w.pruned_deadend <- v);
    ( "pruned_left_deep",
      (fun w -> w.pruned_left_deep),
      fun w v -> w.pruned_left_deep <- v );
  ]

(* The calling domain's accumulator lives behind one extra indirection
   so [scoped] can swap a fresh record in and out without touching the
   DLS slot itself. *)
let slot_key = Domain.DLS.new_key (fun () -> ref (zero ()))
let current () = !(Domain.DLS.get slot_key)

let reset () =
  let w = current () in
  List.iter (fun (_, _, set) -> set w 0) counters;
  w.sort_cost <- 0.0

let copy w = { w with comparisons = w.comparisons }
let snapshot () = copy (current ())

let merge_into dst src =
  List.iter (fun (_, get, set) -> set dst (get dst + get src)) counters;
  dst.sort_cost <- dst.sort_cost +. src.sort_cost

let absorb src = merge_into (current ()) src

let diff ~after ~before =
  let d = copy after in
  List.iter (fun (_, get, set) -> set d (get after - get before)) counters;
  d.sort_cost <- after.sort_cost -. before.sort_cost;
  d

let scoped f =
  let slot = Domain.DLS.get slot_key in
  let outer = !slot in
  let fresh = zero () in
  slot := fresh;
  let result = match f () with v -> Ok v | exception e -> Error e in
  slot := outer;
  (fresh, result)

let fields w = List.map (fun (k, get, _) -> (k, get w)) counters
let equal a b = fields a = fields b && Float.equal a.sort_cost b.sort_cost
let is_zero w = List.for_all (fun (_, v) -> v = 0) (fields w) && w.sort_cost = 0.0

(* items_skipped is excluded by design: skip-ahead is work {e avoided},
   and a kernel that skips more while producing the same result must
   never score worse.  The search breakdown (generated, pruned) and
   [sort_cost] re-count work that is already scored. *)
let score w =
  w.comparisons + w.tuples_emitted + w.candidates_scanned + w.stack_ops
  + w.io_items + w.sorted_items + w.expansions + w.page_touches

(* The storage-independent slice of the score: everything except the IO
   counters ([io_items], [page_touches]), which legitimately differ
   between the Mem and Disk column-store backends (and between lazy and
   forced leaf scans).  The differential tests compare this. *)
let core_score w =
  w.comparisons + w.tuples_emitted + w.candidates_scanned + w.stack_ops
  + w.sorted_items + w.expansions

let equal_mod_io a b =
  equal
    { a with io_items = 0; page_touches = 0 }
    { b with io_items = 0; page_touches = 0 }

let to_json w =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (fields w)
    @ [ ("sort_cost", Json.Float w.sort_cost); ("score", Json.Int (score w)) ])

(* A counter the writer did not know yet (a datapoint older than the
   field) reads as 0. *)
let of_json j =
  let w = zero () in
  let rec ints = function
    | [] -> Ok ()
    | (name, _, set) :: rest -> (
        match Json.member name j with
        | None -> ints rest
        | Some (Json.Int v) ->
            set w v;
            ints rest
        | Some _ -> Error (Printf.sprintf "work field %S is not an integer" name))
  in
  match (ints counters, Json.member "sort_cost" j) with
  | (Error _ as e), _ -> e
  | Ok (), None -> Ok w
  | Ok (), Some v -> (
      match Json.number v with
      | Some f ->
          w.sort_cost <- f;
          Ok w
      | None -> Error "work field \"sort_cost\" is not a number")

let publish ?(prefix = "work") w =
  if Registry.enabled () then
    List.iter
      (fun (k, v) -> Registry.add (Registry.counter (prefix ^ "." ^ k)) v)
      (fields w)

let pp ppf w =
  List.iter (fun (k, v) -> Fmt.pf ppf "%s=%d " k v) (fields w);
  Fmt.pf ppf "sort_cost=%.1f score=%d" w.sort_cost (score w)

(* ---------- GC deltas (advisory; per-process, not per-domain) ---------- *)

type gc_snapshot = {
  allocated_bytes : float;
  minor_collections : int;
  major_collections : int;
}

let gc_snapshot () =
  let s = Gc.quick_stat () in
  {
    allocated_bytes = Gc.allocated_bytes ();
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff ~after ~before =
  {
    allocated_bytes = after.allocated_bytes -. before.allocated_bytes;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
  }

let gc_to_json g =
  Json.Obj
    [
      ("allocated_bytes", Json.Float g.allocated_bytes);
      ("minor_collections", Json.Int g.minor_collections);
      ("major_collections", Json.Int g.major_collections);
    ]
