open Sjos_xml
open Sjos_storage

type entry = {
  count : int;
  mutable hist : Position_histogram.t option;
  mutable slices : (int * Position_histogram.t) list option;
}

type t = {
  grid : int;
  max_pos : int;
  index : Element_index.t;
  (* Guards every find-or-fill, so each part is built once even when
     domains race for it; the LRU's own lock only covers single calls. *)
  m : Mutex.t;
  entries : entry Sjos_cache.Lru.t;
  mutable selects : int;
}

let capacity = 256

let create ~grid index =
  {
    grid;
    max_pos = Document.max_pos (Element_index.document index);
    index;
    m = Mutex.create ();
    entries = Sjos_cache.Lru.create ~capacity;
    selects = 0;
  }

let grid t = t.grid

(* Length-prefixed fields keep the key injective whatever the attribute
   and text values contain. *)
let key (spec : Candidate.spec) =
  let field = function
    | None -> "-"
    | Some s -> string_of_int (String.length s) ^ ":" ^ s
  in
  String.concat ""
    [
      field spec.Candidate.tag;
      field (Option.map fst spec.Candidate.attr);
      field (Option.map snd spec.Candidate.attr);
      field spec.Candidate.text;
    ]

let select t spec =
  t.selects <- t.selects + 1;
  Candidate.select t.index spec

let charge c =
  let w = Sjos_obs.Work.current () in
  w.Sjos_obs.Work.histogram_items <-
    w.Sjos_obs.Work.histogram_items + Cols.length c

(* [f] gets the entry and its candidates, selected at most once per call:
   a label seen for the first time is counted from the same columns its
   first histogram summarizes. *)
let with_entry t spec f =
  Mutex.protect t.m (fun () ->
      let k = key spec in
      match Sjos_cache.Lru.find t.entries k with
      | Some e -> f e (lazy (select t spec))
      | None ->
          let c = select t spec in
          let e = { count = Cols.length c; hist = None; slices = None } in
          ignore (Sjos_cache.Lru.add t.entries k e);
          f e (Lazy.from_val c))

let count t spec = with_entry t spec (fun e _ -> e.count)

(* A part is built from the candidates once, and charged to the query
   that builds it. *)
let part t spec get set build =
  with_entry t spec (fun e c ->
      match get e with
      | Some v -> v
      | None ->
          let c = Lazy.force c in
          charge c;
          let v = build ~grid:t.grid ~max_pos:t.max_pos c in
          set e v;
          v)

let histogram t spec =
  part t spec (fun e -> e.hist) (fun e h -> e.hist <- Some h)
    (fun ~grid ~max_pos c -> Position_histogram.build ~grid ~max_pos c)

let level_slices t spec =
  part t spec (fun e -> e.slices) (fun e s -> e.slices <- Some s)
    Estimator.level_slices

let length t = Sjos_cache.Lru.length t.entries
let selects t = Mutex.protect t.m (fun () -> t.selects)
