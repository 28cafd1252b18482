open Sjos_xml
module Json = Sjos_obs.Json

(* ---------- configuration ---------- *)

type backend = Mem | Disk

type config = {
  backend : backend;
  page_size : int;  (* items per page; one item = one 8-byte int *)
  pool_pages : int;
  dir : string option;  (* Disk only; [None] = fresh temp directory *)
}

let default_page_size = 1024
let default_pool_pages = 256

let mem =
  {
    backend = Mem;
    page_size = default_page_size;
    pool_pages = default_pool_pages;
    dir = None;
  }

let disk ?(page_size = default_page_size) ?(pool_pages = default_pool_pages)
    ?dir () =
  if page_size < 1 || pool_pages < 1 then
    invalid_arg "Column_store.disk: sizes must be positive";
  { backend = Disk; page_size; pool_pages; dir }

let backend_name = function Mem -> "mem" | Disk -> "disk"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "mem" | "memory" -> Ok Mem
  | "disk" -> Ok Disk
  | other -> Error (Printf.sprintf "unknown storage backend %S" other)

(* SJOS_STORAGE=mem|disk selects the process-wide default backend;
   SJOS_PAGE_SIZE / SJOS_POOL_PAGES tune the disk pool.  Unset or
   unparsable values fall back to [mem] — the environment must never be
   able to break a run, only to redirect it. *)
let config_of_env () =
  let int_env name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt (String.trim s) with
                  | Some n when n > 0 -> n
                  | _ -> default)
    | None -> default
  in
  let backend =
    match Sys.getenv_opt "SJOS_STORAGE" with
    | Some s -> ( match backend_of_string s with Ok b -> b | Error _ -> Mem)
    | None -> Mem
  in
  {
    backend;
    page_size = int_env "SJOS_PAGE_SIZE" default_page_size;
    pool_pages = int_env "SJOS_POOL_PAGES" default_pool_pages;
    dir = None;
  }

(* Two configs select the same physical store when the backend and the
   pool geometry agree; [dir] is placement, not behavior, but distinct
   dirs are distinct files so it participates too. *)
let config_equal a b =
  a.backend = b.backend && a.page_size = b.page_size
  && a.pool_pages = b.pool_pages && a.dir = b.dir

(* ---------- disk layout ---------- *)

(* One data file holds every tag's candidate list as four page-aligned
   segments, laid out in allocation order:

     [tag_1.ids | tag_1.starts | tag_1.ends | tag_1.levels | tag_2.ids | ...]

   Each int is 8 bytes little-endian; a page is [page_size] items, so
   [page_bytes = 8 * page_size] and a page id maps to the byte offset
   [page_id * page_bytes] (the pager allocates page ids sequentially and
   the writer emits segments in the same order).  The final page of a
   segment is zero-padded, so every physical read is a full page. *)

type entry = {
  tag : string;
  n : int;
  seg_ids : Pager.segment;
  seg_starts : Pager.segment;
  seg_ends : Pager.segment;
  seg_levels : Pager.segment;
  (* the buffer frames this tag's pages decode into; allocated on first
     touch so a query only pays for the tags it reads *)
  mutable frames : Cols.t option;
}

type disk = {
  pager : Pager.t;
  page_bytes : int;
  path : string;  (* the columns.bin data file *)
  catalog_path : string;
  auto_dir : string option;  (* a temp dir we created and must remove *)
  entries : (string, entry) Hashtbl.t;
  sorted_tags : string list;
  (* One lock serializes the whole fault path: channel seeks, page-table
     updates, frame allocation and decode.  Faulting is the slow path by
     definition (it models physical IO); readers touch the decoded
     arrays outside the lock, which is safe because a frame slot is only
     ever written with the value it already holds after its first decode
     (pages re-read after eviction carry identical bytes). *)
  m : Mutex.t;
  buf : Bytes.t;  (* page-sized read buffer, guarded by [m] *)
  mutable chan : in_channel option;
  mutable disposed : bool;
}

type t = { index : Element_index.t; config : config; disk : disk option }

exception Io_error of { path : string; reason : string }

(* -- writing ----------------------------------------------------------- *)

let column_value which (node : Node.t) =
  match which with
  | `Ids -> node.Node.id
  | `Starts -> node.Node.start_pos
  | `Ends -> node.Node.end_pos
  | `Levels -> node.Node.level

let write_segment oc ~page_size ~buf which (nodes : Node.t array) =
  let n = Array.length nodes in
  let pages = max 1 ((n + page_size - 1) / page_size) in
  for p = 0 to pages - 1 do
    Bytes.fill buf 0 (Bytes.length buf) '\000';
    let lo = p * page_size in
    let hi = min n (lo + page_size) in
    for i = lo to hi - 1 do
      Bytes.set_int64_le buf ((i - lo) * 8)
        (Int64.of_int (column_value which nodes.(i)))
    done;
    output_bytes oc buf
  done

let fresh_dir () =
  let base = Filename.temp_file "sjos-store" "" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  base

(* Stores placed in auto-created temp directories are swept at process
   exit, so test suites and CLI runs that build many disk-backed
   databases do not leak files.  Registration goes through
   [Sjos_obs.Lifecycle] stage [`Dispose], which is guaranteed to run
   before the domain pool's [`Shutdown] stage — disposal order no longer
   depends on which subsystem initialized first. *)
let register_auto_disposal f = Sjos_obs.Lifecycle.on_exit `Dispose f

let write_catalog d ~page_size entries =
  let oc = open_out_bin d in
  let tags =
    List.map
      (fun e ->
        Json.Obj
          [
            ("tag", Json.Str e.tag);
            ("items", Json.Int e.n);
            ("first_page", Json.Int (Pager.segment_base e.seg_ids));
          ])
      entries
  in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("page_size", Json.Int page_size); ("tags", Json.List tags) ]));
  close_out oc

let build_disk config index =
  let page_size = config.page_size in
  let auto_dir, dir =
    match config.dir with
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
        (None, dir)
    | None ->
        let dir = fresh_dir () in
        (Some dir, dir)
  in
  let path = Filename.concat dir "columns.bin" in
  let catalog_path = Filename.concat dir "catalog.json" in
  let pager = Pager.create ~page_size ~pool_pages:config.pool_pages () in
  let page_bytes = 8 * page_size in
  let buf = Bytes.create page_bytes in
  let tags = Element_index.tags index in
  let oc = open_out_bin path in
  let entries = Hashtbl.create 64 in
  let ordered = ref [] in
  List.iter
    (fun tag ->
      let nodes = Element_index.lookup index tag in
      let n = Array.length nodes in
      (* allocation order = write order, so page ids map to offsets *)
      let seg which =
        let seg = Pager.allocate pager ~items:n in
        write_segment oc ~page_size ~buf which nodes;
        seg
      in
      let seg_ids = seg `Ids in
      let seg_starts = seg `Starts in
      let seg_ends = seg `Ends in
      let seg_levels = seg `Levels in
      let e =
        { tag; n; seg_ids; seg_starts; seg_ends; seg_levels; frames = None }
      in
      Hashtbl.replace entries tag e;
      ordered := e :: !ordered)
    tags;
  close_out oc;
  write_catalog catalog_path ~page_size (List.rev !ordered);
  let d =
    {
      pager;
      page_bytes;
      path;
      catalog_path;
      auto_dir;
      entries;
      sorted_tags = tags;
      m = Mutex.create ();
      buf = Bytes.create page_bytes;
      (* opened lazily on first fault: a store that never reads never
         holds a descriptor, and a data file that has gone missing
         between load and first query surfaces as a structured
         [Io_error] instead of a success-then-crash *)
      chan = None;
      disposed = false;
    }
  in
  d

let dispose_disk d =
  Mutex.lock d.m;
  if not d.disposed then begin
    d.disposed <- true;
    (match d.chan with Some c -> close_in_noerr c | None -> ());
    d.chan <- None;
    (try Sys.remove d.path with Sys_error _ -> ());
    (try Sys.remove d.catalog_path with Sys_error _ -> ());
    match d.auto_dir with
    | Some dir -> ( try Sys.rmdir dir with Sys_error _ -> ())
    | None -> ()
  end;
  Mutex.unlock d.m

let create ?(config = mem) index =
  match config.backend with
  | Mem -> { index; config; disk = None }
  | Disk ->
      let d = build_disk config index in
      if config.dir = None then register_auto_disposal (fun () -> dispose_disk d);
      { index; config; disk = Some d }

let index t = t.index
let config t = t.config
let is_disk t = t.disk <> None
let dispose t = match t.disk with Some d -> dispose_disk d | None -> ()

let io_stats t = Option.map (fun d -> Pager.stats d.pager) t.disk

let reset_io t =
  match t.disk with Some d -> Mutex.lock d.m; Pager.reset d.pager; Mutex.unlock d.m | None -> ()

let data_file t = Option.map (fun d -> d.path) t.disk

let pool_bytes t =
  match t.disk with
  | Some d -> Some (d.page_bytes * t.config.pool_pages)
  | None -> None

let total_column_bytes t =
  match t.disk with
  | Some d ->
      let pages =
        Hashtbl.fold
          (fun _ e acc ->
            acc
            + Pager.segment_pages d.pager e.seg_ids
            + Pager.segment_pages d.pager e.seg_starts
            + Pager.segment_pages d.pager e.seg_ends
            + Pager.segment_pages d.pager e.seg_levels)
          d.entries 0
      in
      Some (pages * d.page_bytes)
  | None -> None

(* ---------- the fault path ---------- *)

(* Read one physical page into [d.buf] and decode it into the segment's
   frame array.  [seg_base]/[n] locate the page's item range within the
   segment.  Decoding overwrites the frame slots with the values the
   bytes already encode — re-reads after eviction are real IO but
   idempotent stores, so concurrent readers of previously decoded slots
   are never invalidated. *)
let channel d =
  match d.chan with
  | Some c -> c
  | None ->
      if d.disposed then invalid_arg "Column_store: store has been disposed";
      (match open_in_bin d.path with
      | c ->
          d.chan <- Some c;
          c
      | exception Sys_error msg ->
          raise (Io_error { path = d.path; reason = msg }))

let read_page d (dst : int array) seg page =
  let chan = channel d in
  (try
     seek_in chan (page * d.page_bytes);
     really_input chan d.buf 0 d.page_bytes
   with
  | End_of_file ->
      raise
        (Io_error
           {
             path = d.path;
             reason =
               Printf.sprintf
                 "unexpected end of file reading page %d (truncated or \
                  corrupt column file)"
                 page;
           })
  | Sys_error msg -> raise (Io_error { path = d.path; reason = msg }));
  let page_size = Pager.page_size d.pager in
  let lo = (page - Pager.segment_base seg) * page_size in
  let hi = min (Pager.segment_items seg) (lo + page_size) in
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Int64.to_int (Bytes.get_int64_le d.buf ((i - lo) * 8)))
  done

let frames_of d e =
  Mutex.lock d.m;
  let f =
    match e.frames with
    | Some f -> f
    | None ->
        let f =
          {
            Cols.ids = Array.make e.n 0;
            starts = Array.make e.n 0;
            ends = Array.make e.n 0;
            levels = Array.make e.n 0;
          }
        in
        e.frames <- Some f;
        f
  in
  Mutex.unlock d.m;
  f

(* All faulting runs under [d.m]: the pager's LRU state, the shared read
   buffer and the channel position are one critical section. *)
let ensure_seg d (dst : int array) seg lo hi =
  if hi > lo then begin
    Mutex.lock d.m;
    (try
       Pager.fault_range d.pager seg ~first_item:lo ~n_items:(hi - lo)
         ~on_miss:(fun page -> read_page d dst seg page)
     with e -> Mutex.unlock d.m; raise e);
    Mutex.unlock d.m
  end

let entry_of d tag =
  match Hashtbl.find_opt d.entries tag with
  | Some e -> Some e
  | None -> None

let force_entry d e =
  let f = frames_of d e in
  ensure_seg d f.Cols.ids e.seg_ids 0 e.n;
  ensure_seg d f.Cols.starts e.seg_starts 0 e.n;
  ensure_seg d f.Cols.ends e.seg_ends 0 e.n;
  ensure_seg d f.Cols.levels e.seg_levels 0 e.n;
  f

(* ---------- materializing reads ---------- *)

let cols t tag =
  match t.disk with
  | None -> Element_index.cols t.index tag
  | Some d -> (
      match entry_of d tag with
      | None -> Cols.empty
      | Some e -> force_entry d e)

(* A predicate select against the disk backend still reads the tag's
   candidate list from storage — the full four-column scan is charged —
   and then filters in memory, exactly like the Mem path filters the
   cached arrays.  A wildcard reads every tag's list.  The *result*
   values are computed from the in-memory index either way, so both
   backends return bit-identical columns. *)
let charge_spec_scan t (spec : Candidate.spec) =
  match t.disk with
  | None -> ()
  | Some d -> (
      match spec.Candidate.tag with
      | Some tag -> (
          match entry_of d tag with
          | Some e -> ignore (force_entry d e)
          | None -> ())
      | None ->
          List.iter
            (fun tag ->
              match entry_of d tag with
              | Some e -> ignore (force_entry d e)
              | None -> ())
            d.sorted_tags)

let select t spec =
  match t.disk with
  | None -> Candidate.select_cols t.index spec
  | Some _ ->
      charge_spec_scan t spec;
      if Candidate.is_pure_tag spec then
        cols t (Option.get spec.Candidate.tag)
      else Candidate.select_cols t.index spec

(* ---------- lazy leaves ---------- *)

type leaf = { ld : disk; entry : entry; frames : Cols.t }

let leaf t spec =
  match t.disk with
  | None -> None
  | Some d ->
      if Candidate.is_pure_tag spec then
        match entry_of d (Option.get spec.Candidate.tag) with
        | None -> None
        | Some e -> Some { ld = d; entry = e; frames = frames_of d e }
      else None

let leaf_length l = l.entry.n
let leaf_cols l = l.frames

let clamp l lo hi = (max 0 lo, min l.entry.n hi)

let ensure_probe l i =
  if i >= 0 && i < l.entry.n then
    ensure_seg l.ld l.frames.Cols.starts l.entry.seg_starts i (i + 1)

let ensure_meta l lo hi =
  let lo, hi = clamp l lo hi in
  ensure_seg l.ld l.frames.Cols.starts l.entry.seg_starts lo hi;
  ensure_seg l.ld l.frames.Cols.ends l.entry.seg_ends lo hi;
  ensure_seg l.ld l.frames.Cols.levels l.entry.seg_levels lo hi

let ensure_ids l lo hi =
  let lo, hi = clamp l lo hi in
  ensure_seg l.ld l.frames.Cols.ids l.entry.seg_ids lo hi

let force l = force_entry l.ld l.entry
