(* LRU implemented with an intrusive doubly-linked list over page cells plus
   a hash table from page id to cell. *)

type stats = { accesses : int; hits : int; misses : int; evictions : int }

type cell = {
  page : int;
  mutable prev : cell option;
  mutable next : cell option;
}

type t = {
  page_size : int;
  pool_pages : int;
  table : (int, cell) Hashtbl.t;
  mutable head : cell option;  (* most recently used *)
  mutable tail : cell option;  (* least recently used *)
  mutable resident : int;
  mutable next_page : int;  (* page-id allocator *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type segment = { first_page : int; items : int }

let create ?(page_size = 256) ~pool_pages () =
  if page_size < 1 || pool_pages < 1 then
    invalid_arg "Pager.create: sizes must be positive";
  {
    page_size;
    pool_pages;
    table = Hashtbl.create (4 * pool_pages);
    head = None;
    tail = None;
    resident = 0;
    next_page = 0;
    accesses = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let page_size t = t.page_size

let unlink t cell =
  (match cell.prev with
  | Some p -> p.next <- cell.next
  | None -> t.head <- cell.next);
  (match cell.next with
  | Some n -> n.prev <- cell.prev
  | None -> t.tail <- cell.prev);
  cell.prev <- None;
  cell.next <- None

let push_front t cell =
  cell.next <- t.head;
  cell.prev <- None;
  (match t.head with Some h -> h.prev <- Some cell | None -> t.tail <- Some cell);
  t.head <- Some cell

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some lru ->
      unlink t lru;
      Hashtbl.remove t.table lru.page;
      t.resident <- t.resident - 1;
      t.evictions <- t.evictions + 1

(* LRU bookkeeping only — no work accounting.  Returns whether the page
   was resident (a hit).  Callers charge [Work.page_touches] themselves,
   which lets the batch entry points below fetch the calling domain's
   accumulator once per call instead of once per page (the Domain.DLS
   read used to sit on the per-touch path). *)
let touch_cell t page =
  t.accesses <- t.accesses + 1;
  match Hashtbl.find_opt t.table page with
  | Some cell ->
      t.hits <- t.hits + 1;
      unlink t cell;
      push_front t cell;
      true
  | None ->
      t.misses <- t.misses + 1;
      if t.resident >= t.pool_pages then evict_lru t;
      let cell = { page; prev = None; next = None } in
      Hashtbl.replace t.table page cell;
      push_front t cell;
      t.resident <- t.resident + 1;
      false

let charge_touches n =
  let w = Sjos_obs.Work.current () in
  w.Sjos_obs.Work.page_touches <- w.Sjos_obs.Work.page_touches + n

let pages_for t items = max 1 ((items + t.page_size - 1) / t.page_size)

let allocate t ~items =
  if items < 0 then invalid_arg "Pager.allocate: negative size";
  let seg = { first_page = t.next_page; items } in
  t.next_page <- t.next_page + pages_for t items;
  seg

let segment_pages t seg = pages_for t seg.items
let segment_base seg = seg.first_page
let segment_items seg = seg.items

let scan t seg =
  let p0 = seg.first_page and p1 = seg.first_page + pages_for t seg.items - 1 in
  charge_touches (p1 - p0 + 1);
  for p = p0 to p1 do
    ignore (touch_cell t p)
  done

let page_span t seg ~first_item ~n_items =
  if first_item < 0 || n_items < 0 || first_item + n_items > seg.items then
    invalid_arg "Pager.scan_range: range outside segment";
  let p0 = seg.first_page + (first_item / t.page_size) in
  let p1 = seg.first_page + ((first_item + n_items - 1) / t.page_size) in
  (p0, p1)

let fault_range t seg ~first_item ~n_items ~on_miss =
  if n_items > 0 then begin
    let p0, p1 = page_span t seg ~first_item ~n_items in
    charge_touches (p1 - p0 + 1);
    for p = p0 to p1 do
      if not (touch_cell t p) then on_miss p
    done
  end

let scan_range t seg ~first_item ~n_items =
  fault_range t seg ~first_item ~n_items ~on_miss:ignore

let stats t : stats =
  { accesses = t.accesses; hits = t.hits; misses = t.misses; evictions = t.evictions }

let stats_to_json (s : stats) =
  Sjos_obs.Json.Obj
    [
      ("accesses", Sjos_obs.Json.Int s.accesses);
      ("hits", Sjos_obs.Json.Int s.hits);
      ("misses", Sjos_obs.Json.Int s.misses);
      ("evictions", Sjos_obs.Json.Int s.evictions);
    ]

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

(* Drop every resident page and zero the counters: the next access to
   any page is a cold miss, as if the pool had just been created — but
   without forgetting segment allocations, so benches can re-measure
   the same segments against a cold pool. *)
let reset t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.resident <- 0;
  reset_stats t

let hit_ratio t =
  if t.accesses = 0 then 0.0 else float_of_int t.hits /. float_of_int t.accesses

let resident_pages t = t.resident
