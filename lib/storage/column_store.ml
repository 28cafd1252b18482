open Sjos_xml

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

(* SJOS_STORAGE=mem|disk selects the process-wide default backend, with
   the default pool.  An unset or unparsable value falls back to [mem] —
   the environment must never be able to break a run, only to redirect
   it. *)
let config_of_env () =
  match Option.map backend_of_string (Sys.getenv_opt "SJOS_STORAGE") with
  | Some (Ok Disk) -> disk ()
  | _ -> mem

(* ---------- disk layout ---------- *)

(* One data file holds every tag's candidate list as four page-aligned
   segments, laid out in allocation order:

     [tag_1.ids | tag_1.starts | tag_1.ends | tag_1.levels | tag_2.ids | ...]

   Each int is 8 bytes little-endian; a page is [page_size] items, so
   [page_bytes = 8 * page_size] and a page id maps to the byte offset
   [page_id * page_bytes] (the pager allocates page ids sequentially and
   the writer seeks each segment to its own offset).  The final page of a
   segment is zero-padded, so every physical read is a full page.

   Posting lists for predicate specs ([eNest[@aLevel='2']]) are appended
   past the tag segments on first use, in the same four-column layout,
   through the same pager. *)

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
  auto_dir : string option;  (* a temp dir we created and must remove *)
  entries : (string, entry) Hashtbl.t;
  sorted_tags : string list;
  (* Posting lists by spec.  [build] guards the table and serializes
     building, so each posting is written once even when domains race
     for it.  It is taken before [m], never while holding it: building
     faults the tag's pages, which takes [m]. *)
  postings : (Candidate.spec, entry) Hashtbl.t;
  build : Mutex.t;
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

(* Write one column as [seg]'s pages, each at its own offset
   [page_id * page_bytes] rather than wherever the file happens to end. *)
let write_segment oc ~buf seg (col : int array) =
  let page_bytes = Bytes.length buf and page_size = Bytes.length buf / 8 in
  let n = Array.length col in
  seek_out oc (Pager.segment_base seg * page_bytes);
  for p = 0 to max 1 ((n + page_size - 1) / page_size) - 1 do
    Bytes.fill buf 0 page_bytes '\000';
    let lo = p * page_size in
    let hi = min n (lo + page_size) in
    for i = lo to hi - 1 do
      Bytes.set_int64_le buf ((i - lo) * 8) (Int64.of_int col.(i))
    done;
    output_bytes oc buf
  done

(* Allocate the four segments of an [n]-item candidate list.  The pager
   is shared with the fault path, so callers hold [m] when readers may
   be running. *)
let allocate_entry pager tag n =
  let seg () = Pager.allocate pager ~items:n in
  let seg_ids = seg () in
  let seg_starts = seg () in
  let seg_ends = seg () in
  let seg_levels = seg () in
  { tag; n; seg_ids; seg_starts; seg_ends; seg_levels; frames = None }

let write_entry oc ~buf e (c : Cols.t) =
  write_segment oc ~buf e.seg_ids c.Cols.ids;
  write_segment oc ~buf e.seg_starts c.Cols.starts;
  write_segment oc ~buf e.seg_ends c.Cols.ends;
  write_segment oc ~buf e.seg_levels c.Cols.levels

(* A failed write, like a failed read, is an [Io_error]: a temp
   directory that cannot be created or a full disk is bad storage, not
   an engine bug. *)
let io_guard path f =
  try f () with Sys_error reason -> raise (Io_error { path; reason })

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

let build_disk config index =
  let page_size = config.page_size in
  let auto_dir, dir =
    match config.dir with
    | Some dir ->
        io_guard dir (fun () ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o700);
        (None, dir)
    | None ->
        let dir = io_guard (Filename.get_temp_dir_name ()) fresh_dir in
        (Some dir, dir)
  in
  let path = Filename.concat dir "columns.bin" in
  let pager = Pager.create ~page_size ~pool_pages:config.pool_pages () in
  let page_bytes = 8 * page_size in
  let tags = Element_index.tags index in
  let ordered =
    List.map
      (fun tag ->
        allocate_entry pager tag (Element_index.cardinality index tag))
      tags
  in
  io_guard path (fun () ->
      let oc = open_out_bin path in
      let buf = Bytes.create page_bytes in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          List.iter
            (fun e -> write_entry oc ~buf e (Element_index.cols index e.tag))
            ordered;
          close_out oc));
  let entries = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace entries e.tag e) ordered;
  {
    pager;
    page_bytes;
    path;
    auto_dir;
    entries;
    sorted_tags = tags;
    postings = Hashtbl.create 16;
    build = Mutex.create ();
    m = Mutex.create ();
    buf = Bytes.create page_bytes;
    (* opened lazily on first fault: a store that never reads never
       holds a descriptor, and a data file that has gone missing
       between load and first query surfaces as a structured
       [Io_error] instead of a success-then-crash *)
    chan = None;
    disposed = false;
  }

let dispose_disk d =
  Mutex.lock d.m;
  if not d.disposed then begin
    d.disposed <- true;
    (match d.chan with Some c -> close_in_noerr c | None -> ());
    d.chan <- None;
    (try Sys.remove d.path with Sys_error _ -> ());
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

(* The four segments of a list have the same item count, hence the same
   page count. *)
let total_column_bytes t =
  Option.map
    (fun d ->
      let add _ e acc = acc + (4 * Pager.segment_pages d.pager e.seg_ids) in
      let pages =
        Mutex.protect d.build (fun () ->
            Hashtbl.fold add d.postings (Hashtbl.fold add d.entries 0))
      in
      pages * d.page_bytes)
    t.disk

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

let entry_of d tag = Hashtbl.find_opt d.entries tag

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
  | None -> Candidate.select t.index spec
  | Some _ ->
      charge_spec_scan t spec;
      if Candidate.is_pure_tag spec then
        cols t (Option.get spec.Candidate.tag)
      else Candidate.select t.index spec

(* ---------- posting lists ---------- *)

let posting_capacity = 256

(* Write [spec]'s selection as a new posting: four segments allocated
   past every page already handed out.  The file must already hold all
   of those pages — a shorter one has been truncated, and writing at its
   end would shift the page mapping — so that is checked before the
   first byte goes out. *)
let write_posting d spec (c : Cols.t) =
  let e =
    Mutex.protect d.m (fun () ->
        if d.disposed then invalid_arg "Column_store: store has been disposed";
        allocate_entry d.pager (Candidate.spec_to_string spec)
          (Cols.length c))
  in
  io_guard d.path (fun () ->
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o600 d.path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          let base = Pager.segment_base e.seg_ids in
          if out_channel_length oc < base * d.page_bytes then
            raise
              (Io_error
                 {
                   path = d.path;
                   reason =
                     Printf.sprintf
                       "column file holds fewer than the %d pages allocated \
                        (truncated)"
                       base;
                 });
          write_entry oc ~buf:(Bytes.create d.page_bytes) e c;
          close_out oc));
  e

(* The posting for a predicate spec, built on its first use.  That first
   use charges the full scan of the tag's segments — what a
   materializing {!select} charges — and selects from the in-memory
   index, as {!select} does.  [None] once the store holds
   [posting_capacity] postings. *)
let posting t d tag_entry spec =
  Mutex.protect d.build (fun () ->
      match Hashtbl.find_opt d.postings spec with
      | Some e -> Some e
      | None when Hashtbl.length d.postings >= posting_capacity -> None
      | None ->
          ignore (force_entry d tag_entry);
          let e = write_posting d spec (Candidate.select t.index spec) in
          Hashtbl.replace d.postings spec e;
          Some e)

(* ---------- lazy leaves ---------- *)

(* One scan's cursor over a list's shared buffer frames.  Metadata and
   probes keep the item range of the last page run they made resident
   and skip any ensure inside it, so the merge touches a page once per
   run rather than once per row; a probe only reads [starts], which a
   metadata run also decodes.  Ids pages are faulted at most once per
   scan: [ids_done] holds one flag per page, and [ids_lo]/[ids_hi] the
   last run, so the per-emit check is two compares.  A decoded slot
   stays readable after the pool evicts its page (re-reads are
   idempotent), so nothing is faulted twice for the reader's sake. *)
type leaf = {
  ld : disk;
  entry : entry;
  frames : Cols.t;
  mutable meta_lo : int;
  mutable meta_hi : int;
  mutable probe_lo : int;
  mutable probe_hi : int;
  mutable ids_lo : int;
  mutable ids_hi : int;
  ids_done : Bytes.t;
}

let leaf t (spec : Candidate.spec) =
  match (t.disk, spec.Candidate.tag) with
  | Some d, Some tag -> (
      let lazy_on e =
        {
          ld = d;
          entry = e;
          frames = frames_of d e;
          meta_lo = 0;
          meta_hi = 0;
          probe_lo = 0;
          probe_hi = 0;
          ids_lo = 0;
          ids_hi = 0;
          ids_done = Bytes.make (Pager.segment_pages d.pager e.seg_ids) '\000';
        }
      in
      match entry_of d tag with
      | None -> None
      | Some e when Candidate.is_pure_tag spec -> Some (lazy_on e)
      | Some e -> Option.map lazy_on (posting t d e spec))
  | _ -> None

let leaf_cols l = l.frames

(* The item range of the page holding item [i]. *)
let page_run l i =
  let ps = Pager.page_size l.ld.pager in
  let lo = i / ps * ps in
  (lo, min l.entry.n (lo + ps))

let inside l i = i >= 0 && i < l.entry.n

let ensure_meta l i =
  if (i < l.meta_lo || i >= l.meta_hi) && inside l i then begin
    let lo, hi = page_run l i and e = l.entry and f = l.frames in
    ensure_seg l.ld f.Cols.starts e.seg_starts lo hi;
    ensure_seg l.ld f.Cols.ends e.seg_ends lo hi;
    ensure_seg l.ld f.Cols.levels e.seg_levels lo hi;
    l.meta_lo <- lo;
    l.meta_hi <- hi
  end

let ensure_probe l i =
  if
    (i < l.probe_lo || i >= l.probe_hi)
    && (i < l.meta_lo || i >= l.meta_hi)
    && inside l i
  then begin
    let lo, hi = page_run l i in
    ensure_seg l.ld l.frames.Cols.starts l.entry.seg_starts lo hi;
    l.probe_lo <- lo;
    l.probe_hi <- hi
  end

let ensure_ids l lo hi =
  if lo < l.ids_lo || hi > l.ids_hi then begin
    let lo = max 0 lo and hi = min l.entry.n hi in
    if hi > lo then begin
      let ps = Pager.page_size l.ld.pager in
      for p = lo / ps to (hi - 1) / ps do
        if Bytes.get l.ids_done p = '\000' then begin
          let plo, phi = page_run l (p * ps) in
          ensure_seg l.ld l.frames.Cols.ids l.entry.seg_ids plo phi;
          Bytes.set l.ids_done p '\001'
        end
      done;
      l.ids_lo <- fst (page_run l lo);
      l.ids_hi <- snd (page_run l (hi - 1))
    end
  end

let force l =
  ignore (force_entry l.ld l.entry);
  Bytes.fill l.ids_done 0 (Bytes.length l.ids_done) '\001'
