module Error = Sjos_guard.Error

type t = {
  max_active : int;
  max_queue : int;
  m : Mutex.t;
  c : Condition.t;
  mutable active : int;
  mutable queued : int;
}

let create ~max_active ~max_queue =
  {
    max_active = max 1 max_active;
    max_queue = max 0 max_queue;
    m = Mutex.create ();
    c = Condition.create ();
    active = 0;
    queued = 0;
  }

let shed t =
  (* Retry once the currently queued work has had a chance to drain; a
     crude but monotone hint — deeper queue, longer wait. *)
  let retry_after_ms = 25.0 *. float_of_int (t.queued + 1) in
  Error.Overloaded
    {
      reason =
        Printf.sprintf "admission queue full (%d active, %d queued)" t.active
          t.queued;
      retry_after_ms;
    }

let with_slot t ~should_abort f =
  Mutex.lock t.m;
  (* an arrival may only take the fast path when nobody is queued —
     otherwise sustained new traffic would keep grabbing freed slots
     ahead of the waiters whose retry_after hint told them to wait *)
  if t.queued = 0 && t.active < t.max_active then begin
    t.active <- t.active + 1;
    Mutex.unlock t.m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.m;
        t.active <- t.active - 1;
        Condition.signal t.c;
        Mutex.unlock t.m)
      (fun () -> Ok (f ()))
  end
  else if t.queued >= t.max_queue then begin
    let e = shed t in
    Mutex.unlock t.m;
    Error e
  end
  else begin
    t.queued <- t.queued + 1;
    let rec wait () =
      match should_abort () with
      | Some e ->
          t.queued <- t.queued - 1;
          Mutex.unlock t.m;
          Error e
      | None ->
          if t.active < t.max_active then begin
            t.queued <- t.queued - 1;
            t.active <- t.active + 1;
            Mutex.unlock t.m;
            Fun.protect
              ~finally:(fun () ->
                Mutex.lock t.m;
                t.active <- t.active - 1;
                Condition.signal t.c;
                Mutex.unlock t.m)
              (fun () -> Ok (f ()))
          end
          else begin
            Condition.wait t.c t.m;
            wait ()
          end
    in
    wait ()
  end

let try_acquire t =
  Mutex.lock t.m;
  (* same no-overtaking rule as [with_slot]'s fast path *)
  let ok = t.queued = 0 && t.active < t.max_active in
  if ok then t.active <- t.active + 1;
  Mutex.unlock t.m;
  ok

let release t =
  Mutex.lock t.m;
  t.active <- t.active - 1;
  Condition.signal t.c;
  Mutex.unlock t.m

let notify t =
  Mutex.lock t.m;
  Condition.broadcast t.c;
  Mutex.unlock t.m

let active t = t.active
let queued t = t.queued
let max_active t = t.max_active
let max_queue t = t.max_queue
