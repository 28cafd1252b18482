(* Hand-rolled domain pool.  The toolchain ships no domainslib, and the
   scheduling this engine needs — fixed fan-out, deterministic result
   ordering, deterministic exception choice — fits in a page of
   Mutex/Condition/Atomic.

   One batch at a time is published as a [job] closure guarded by
   [m]/[cond]; sleeping workers are woken by a generation bump.  Inside
   a batch, tasks are claimed with [Atomic.fetch_and_add] on a shared
   counter (work-sharing, so uneven shards balance), results and
   exceptions land in index-slotted arrays, and the caller is itself a
   worker — a pool of size 1 owns no domains at all. *)

let in_worker = Domain.DLS.new_key (fun () -> false)

type t = {
  size : int;
  m : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable generation : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.size

let clamp d = max 1 (min 128 d)

let default_domains () =
  match Sys.getenv_opt "SJOS_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> clamp d
      | Some _ | None -> 1)

(* A worker sleeps until the generation moves (a new batch) or the pool
   stops.  It may also observe a batch that is already drained — [help]
   then returns immediately — or a generation bump whose job was already
   retired ([job = None]); both are benign. *)
let rec worker_wait t last_gen =
  Mutex.lock t.m;
  while (not t.stopped) && t.generation = last_gen do
    Condition.wait t.cond t.m
  done;
  if t.stopped then Mutex.unlock t.m
  else begin
    let gen = t.generation in
    let job = t.job in
    Mutex.unlock t.m;
    (match job with Some help -> help () | None -> ());
    worker_wait t gen
  end

let create ?domains () =
  let size =
    clamp (match domains with Some d -> d | None -> default_domains ())
  in
  let t =
    {
      size;
      m = Mutex.create ();
      cond = Condition.create ();
      job = None;
      generation = 0;
      stopped = false;
      workers = [];
    }
  in
  if size > 1 then
    t.workers <-
      List.init (size - 1) (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              worker_wait t 0));
  t

let serial = create ~domains:1 ()

let run_serial n f = Array.init n f

let run t n f =
  if n <= 0 then [||]
  else if t.size <= 1 || n = 1 || t.stopped || Domain.DLS.get in_worker then
    run_serial n f
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    (* Deterministic work accounting survives the fan-out: each task
       runs against a fresh per-task accumulator on whatever domain
       claimed it, and the caller absorbs every task's delta at the
       barrier below.  Integer sums are order-independent, so the
       caller-visible totals are bit-identical to the serial loop at any
       pool size — the property the perf CI gate stands on. *)
    let works = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let done_m = Mutex.create () in
    let done_c = Condition.create () in
    let help () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let work, outcome = Sjos_obs.Work.scoped (fun () -> f i) in
          works.(i) <- Some work;
          (match outcome with
          | Ok v -> results.(i) <- Some v
          | Error e -> errors.(i) <- Some e);
          (* the atomic increment publishes the slot writes above to the
             waiter, which reads [completed] before touching the arrays *)
          if Atomic.fetch_and_add completed 1 + 1 = n then begin
            Mutex.lock done_m;
            Condition.broadcast done_c;
            Mutex.unlock done_m
          end
        end
      done
    in
    Mutex.lock t.m;
    t.job <- Some help;
    t.generation <- t.generation + 1;
    let my_gen = t.generation in
    Condition.broadcast t.cond;
    Mutex.unlock t.m;
    help ();
    Mutex.lock done_m;
    while Atomic.get completed < n do
      Condition.wait done_c done_m
    done;
    Mutex.unlock done_m;
    (* retire the job so the closure (and these arrays) don't outlive
       the batch; a late-waking worker sees [None] and just re-sleeps *)
    Mutex.lock t.m;
    if t.generation = my_gen then t.job <- None;
    Mutex.unlock t.m;
    Array.iter
      (function Some w -> Sjos_obs.Work.absorb w | None -> ())
      works;
    let first_error = ref None in
    for i = n - 1 downto 0 do
      match errors.(i) with Some e -> first_error := Some e | None -> ()
    done;
    match !first_error with
    | Some e -> raise e
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let shutdown t =
  Mutex.lock t.m;
  if t.stopped then Mutex.unlock t.m
  else begin
    t.stopped <- true;
    Condition.broadcast t.cond;
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.m;
    List.iter Domain.join ws
  end

let default_m = Mutex.create ()
let default_pool = ref None

let get_default () =
  Mutex.lock default_m;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        (* Through Lifecycle so that disk-backed column stores (stage
           [`Dispose]) are always released before the pool's workers are
           joined, whichever subsystem initialized first. *)
        if p.size > 1 then
          Sjos_obs.Lifecycle.on_exit `Shutdown (fun () -> shutdown p);
        p
  in
  Mutex.unlock default_m;
  p
