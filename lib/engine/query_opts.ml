open Sjos_core
open Sjos_guard

type t = {
  algorithm : Optimizer.algorithm;
  engine : Optimizer.engine;
  use_cache : bool;
  factors : Sjos_cost.Cost_model.factors option;
  grid : int option;
  budget : Budget.t;
  chaos : Chaos.t option;
  pool : Sjos_par.Pool.t option;
  storage : Sjos_storage.Column_store.config option;
}

let make ?(algorithm = Optimizer.Dpp) ?(engine = Optimizer.Binary)
    ?(use_cache = true) ?factors ?grid ?(budget = Budget.unlimited) ?chaos ?pool
    ?storage () =
  {
    algorithm;
    engine;
    use_cache;
    factors;
    grid;
    budget;
    chaos;
    pool;
    storage;
  }

let default = make ()
let cold t = { t with use_cache = false }
