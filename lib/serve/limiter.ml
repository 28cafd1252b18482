type t = {
  rate_per_sec : float;  (* <= 0. means unlimited *)
  burst : float;
  m : Mutex.t;
  mutable tokens : float;
  (* anchored to the first observed timestamp, not creation time, so an
     injected test clock needn't agree with the monotonic one *)
  mutable last_ns : int64 option;
}

let create ~rate_per_sec ~burst =
  let burst = Float.max 1.0 burst in
  { rate_per_sec; burst; m = Mutex.create (); tokens = burst; last_ns = None }

let unlimited () = create ~rate_per_sec:0.0 ~burst:1.0

let refill t now_ns =
  match t.last_ns with
  | None -> t.last_ns <- Some now_ns
  | Some last ->
      let dt = Int64.to_float (Int64.sub now_ns last) /. 1e9 in
      if dt > 0.0 then begin
        t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate_per_sec));
        t.last_ns <- Some now_ns
      end

let try_take ?now_ns t =
  if t.rate_per_sec <= 0.0 then Ok ()
  else begin
    let now = match now_ns with Some n -> n | None -> Sjos_obs.Clock.now_ns () in
    Mutex.lock t.m;
    refill t now;
    let r =
      if t.tokens >= 1.0 then begin
        t.tokens <- t.tokens -. 1.0;
        Ok ()
      end
      else Error ((1.0 -. t.tokens) /. t.rate_per_sec *. 1000.0)
    in
    Mutex.unlock t.m;
    r
  end
