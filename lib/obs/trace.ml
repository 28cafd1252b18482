type span = {
  name : string;
  start_ns : int64;
  mutable end_ns : int64 option;
  mutable attrs : (string * Json.t) list;
  mutable children_rev : span list;
  dummy : bool;
}

let null_span =
  {
    name = "";
    start_ns = 0L;
    end_ns = Some 0L;
    attrs = [];
    children_rev = [];
    dummy = true;
  }

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Recorded forest: finished roots in reverse order, plus the stack of
   currently-open spans (innermost first).  The state is domain-local:
   span nesting follows each domain's own call stack, so domains that
   trace concurrently each build their own forest instead of corrupting
   a shared one.  [to_json]/[to_string]/[reset] operate on the calling
   domain's forest.

   Every domain's state is additionally registered (once, at first use)
   in a process-global list so the Chrome trace exporter can emit one
   track per domain.  The registration order assigns track ids; the
   driving domain is almost always tid 0. *)
type state = {
  tid : int;
  mutable roots_rev : span list;
  mutable open_stack : span list;
}

let states_m = Mutex.create ()
let all_states : state list ref = ref []
let next_tid = ref 0

let state_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock states_m;
      let st = { tid = !next_tid; roots_rev = []; open_stack = [] } in
      incr next_tid;
      all_states := st :: !all_states;
      Mutex.unlock states_m;
      st)

let state () = Domain.DLS.get state_key

let reset () =
  let st = state () in
  st.roots_rev <- [];
  st.open_stack <- []

let is_empty () =
  let st = state () in
  st.roots_rev = [] && st.open_stack = []

let begin_span ?(attrs = []) name =
  if not (Atomic.get on) then null_span
  else begin
    let s =
      {
        name;
        start_ns = Clock.now_ns ();
        end_ns = None;
        attrs;
        children_rev = [];
        dummy = false;
      }
    in
    let st = state () in
    (match st.open_stack with
    | parent :: _ -> parent.children_rev <- s :: parent.children_rev
    | [] -> st.roots_rev <- s :: st.roots_rev);
    st.open_stack <- s :: st.open_stack;
    s
  end

let end_span ?(attrs = []) s =
  if not s.dummy && s.end_ns = None then begin
    let now = Clock.now_ns () in
    let st = state () in
    (* close any descendants left open, then the span itself *)
    let rec close_to () =
      match st.open_stack with
      | top :: rest ->
          st.open_stack <- rest;
          if top.end_ns = None then top.end_ns <- Some now;
          if top != s then close_to ()
      | [] -> ()
    in
    if List.memq s st.open_stack then close_to () else s.end_ns <- Some now;
    s.attrs <- s.attrs @ attrs
  end

let with_span ?attrs name f =
  if not (Atomic.get on) then f ()
  else begin
    let s = begin_span ?attrs name in
    match f () with
    | r ->
        end_span s;
        r
    | exception e ->
        end_span s;
        raise e
  end

let event ?attrs name =
  if Atomic.get on then end_span (begin_span ?attrs name)

let span_seconds s =
  let finish = match s.end_ns with Some t -> t | None -> Clock.now_ns () in
  Clock.seconds_of_ns (Int64.sub finish s.start_ns)

let rec span_to_json s =
  let fields =
    [ ("name", Json.Str s.name); ("seconds", Json.Float (span_seconds s)) ]
  in
  let fields =
    if s.attrs = [] then fields else fields @ [ ("attrs", Json.Obj s.attrs) ]
  in
  let fields =
    match s.children_rev with
    | [] -> fields
    | kids ->
        fields @ [ ("children", Json.List (List.rev_map span_to_json kids)) ]
  in
  Json.Obj fields

let to_json () = Json.List (List.rev_map span_to_json (state ()).roots_rev)

(* ---------- Chrome trace-event export ----------

   The catapult/Perfetto JSON format: one complete ("X") event per span
   with microsecond timestamps, one track (tid) per domain, plus a
   thread_name metadata record per track.  Timestamps are rebased to the
   earliest recorded span so traces start near zero.  The export walks
   every domain's forest; it is meant to run after the traced work has
   completed (the pool's workers are idle between batches), like the
   CLI's [--trace-out] does. *)

let to_chrome_json () =
  let states =
    Mutex.lock states_m;
    let ss = !all_states in
    Mutex.unlock states_m;
    List.sort (fun a b -> compare a.tid b.tid) ss
  in
  let epoch = ref Int64.max_int in
  let scan_epoch st =
    match List.rev st.roots_rev with
    | [] -> ()
    | first :: _ -> if first.start_ns < !epoch then epoch := first.start_ns
  in
  List.iter scan_epoch states;
  let epoch = if !epoch = Int64.max_int then 0L else !epoch in
  let us_of ns = Int64.to_float (Int64.sub ns epoch) /. 1e3 in
  let events = ref [] in
  let emit_event e = events := e :: !events in
  let rec emit_span tid s =
    let finish =
      match s.end_ns with Some t -> t | None -> Clock.now_ns ()
    in
    let fields =
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", Json.Float (us_of s.start_ns));
        ("dur", Json.Float (Int64.to_float (Int64.sub finish s.start_ns) /. 1e3));
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
      ]
    in
    let fields =
      if s.attrs = [] then fields else fields @ [ ("args", Json.Obj s.attrs) ]
    in
    emit_event (Json.Obj fields);
    List.iter (emit_span tid) (List.rev s.children_rev)
  in
  List.iter
    (fun st ->
      if st.roots_rev <> [] || st.open_stack <> [] then begin
        emit_event
          (Json.Obj
             [
               ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int 0);
               ("tid", Json.Int st.tid);
               ( "args",
                 Json.Obj
                   [
                     ( "name",
                       Json.Str
                         (if st.tid = 0 then "main"
                          else Printf.sprintf "domain-%d" st.tid) );
                   ] );
             ]);
        List.iter (emit_span st.tid) (List.rev st.roots_rev)
      end)
    states;
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_string () =
  let buf = Buffer.create 256 in
  let rec emit depth s =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf s.name;
    Buffer.add_string buf (Printf.sprintf "  %.3f ms" (span_seconds s *. 1e3));
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (Printf.sprintf "  %s=%s" k (Json.to_string v)))
      s.attrs;
    Buffer.add_char buf '\n';
    List.iter (emit (depth + 1)) (List.rev s.children_rev)
  in
  List.iter (emit 0) (List.rev (state ()).roots_rev);
  Buffer.contents buf
