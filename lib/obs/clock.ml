let now_ns () = Monotonic_clock.now ()
let seconds_of_ns ns = Int64.to_float ns *. 1e-9
let elapsed_seconds ~since = seconds_of_ns (Int64.sub (now_ns ()) since)
