open Sjos_core
open Sjos_guard

type t = {
  algorithm : Optimizer.algorithm;
  engine : Optimizer.engine;
  use_cache : bool;
  budget : Budget.t;
  chaos : Chaos.t option;
  pool : Sjos_par.Pool.t option;
}

let make ?(algorithm = Optimizer.Dpp) ?(engine = Optimizer.Binary)
    ?(use_cache = true) ?(budget = Budget.unlimited) ?chaos ?pool () =
  { algorithm; engine; use_cache; budget; chaos; pool }

let default = make ()
let cold t = { t with use_cache = false }
