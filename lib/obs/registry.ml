(* Thread-safety: instruments are shared across domains, so
   registration, float-bearing updates and snapshots are serialized by a
   single registry mutex, while counters use [int Atomic.t] so the hot
   increment path stays lock-free and allocation-free (immediate ints).
   Uncontended [Mutex.lock] does not allocate either, so the
   single-domain cost of a gauge/timer update is unchanged in
   kind: a branch, a lock word, a few field writes. *)

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; mutable value : float }
type timer = { t_name : string; mutable seconds : float; mutable samples : int }

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Guards the tables and every non-atomic instrument field. *)
let m = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

let find_or_add table name make =
  Mutex.lock m;
  let x =
    match Hashtbl.find_opt table name with
    | Some x -> x
    | None ->
        let x = make () in
        Hashtbl.add table name x;
        x
  in
  Mutex.unlock m;
  x

let counter name =
  find_or_add counters name (fun () -> { c_name = name; count = Atomic.make 0 })

let incr c = if Atomic.get on then Atomic.incr c.count
let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.count n)
let counter_value c = Atomic.get c.count

let gauge name = find_or_add gauges name (fun () -> { g_name = name; value = 0.0 })

let set_gauge g v =
  if Atomic.get on then begin
    Mutex.lock m;
    g.value <- v;
    Mutex.unlock m
  end

let timer name =
  find_or_add timers name (fun () -> { t_name = name; seconds = 0.0; samples = 0 })

let add_seconds t s =
  if Atomic.get on then begin
    Mutex.lock m;
    t.seconds <- t.seconds +. s;
    t.samples <- t.samples + 1;
    Mutex.unlock m
  end

let timer_total t =
  Mutex.lock m;
  let v = t.seconds in
  Mutex.unlock m;
  v

let timer_count t =
  Mutex.lock m;
  let v = t.samples in
  Mutex.unlock m;
  v

let reset () =
  Mutex.lock m;
  Hashtbl.reset counters;
  Hashtbl.reset gauges;
  Hashtbl.reset timers;
  Mutex.unlock m

let sorted_values table =
  Hashtbl.fold (fun _ v acc -> v :: acc) table []

let to_json () =
  let by fst_of l = List.sort (fun a b -> compare (fst_of a) (fst_of b)) l in
  Mutex.lock m;
  let counters_j =
    sorted_values counters
    |> List.map (fun c -> (c.c_name, Json.Int (Atomic.get c.count)))
    |> by fst
  in
  let gauges_j =
    sorted_values gauges |> List.map (fun g -> (g.g_name, Json.Float g.value)) |> by fst
  in
  let timers_j =
    sorted_values timers
    |> List.map (fun t ->
           ( t.t_name,
             Json.Obj [ ("seconds", Json.Float t.seconds); ("count", Json.Int t.samples) ] ))
    |> by fst
  in
  Mutex.unlock m;
  Json.Obj
    [
      ("counters", Json.Obj counters_j);
      ("gauges", Json.Obj gauges_j);
      ("timers", Json.Obj timers_j);
    ]

let pp ppf () =
  (* snapshot under the lock, format outside it *)
  Mutex.lock m;
  let cs = List.sort compare (sorted_values counters) in
  let cs = List.map (fun c -> (c.c_name, Atomic.get c.count)) cs in
  let gs =
    List.sort compare (sorted_values gauges)
    |> List.map (fun g -> (g.g_name, g.value))
  in
  let ts =
    List.sort compare (sorted_values timers)
    |> List.map (fun t -> (t.t_name, t.seconds, t.samples))
  in
  Mutex.unlock m;
  let line fmt = Fmt.pf ppf fmt in
  List.iter (fun (name, count) -> line "counter %-40s %d@." name count) cs;
  List.iter (fun (name, value) -> line "gauge   %-40s %g@." name value) gs;
  List.iter
    (fun (name, seconds, samples) ->
      line "timer   %-40s %.6fs over %d@." name seconds samples)
    ts
