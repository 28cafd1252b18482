(** Harnesses that regenerate every table and figure of the paper's
    evaluation (§4).  Each function returns structured rows; printing
    helpers render them in the paper's layout.

    Times are reported in two currencies: wall-clock seconds on the host,
    and machine-independent {e cost units} (the executor's operation counts
    weighted by the cost-model factors).  The paper's absolute seconds are
    not reproducible — its substrate was Timber on a Pentium III — but the
    relative shapes are; EXPERIMENTS.md records both. *)

open Sjos_pattern
open Sjos_core

type cell = {
  opt_seconds : float;  (** time spent choosing the plan *)
  plans_considered : int;
  eval_units : float;  (** execution cost units of the chosen plan *)
  eval_seconds : float;
  matches : int;
  est_cost : float;  (** the optimizer's estimate for the chosen plan *)
}

val run_cell : ?opts:Query_opts.t -> Database.t -> Pattern.t -> cell
(** Optimize (per [opts], default {!Query_opts.default}) and execute the
    chosen plan.  If execution would exceed the tuple ceiling of
    [opts.budget],
    [eval_units] falls back to the cost-model estimate, [eval_seconds] is
    [nan] and [matches] is [-1]. *)

val cold_opts : ?max_tuples:int -> Optimizer.algorithm -> Query_opts.t
(** Options for a cold measurement cell: the given algorithm with plan
    caching off and [max_tuples] as the budget's tuple ceiling, so [plans_considered]/[opt_seconds] always reflect a real
    search.  All table/figure harnesses below use this. *)

val bad_plan_cell :
  ?seed:int -> ?samples:int -> ?max_tuples:int -> Database.t -> Pattern.t -> cell
(** The paper's "bad plan": the worst of [samples] (default 20) random
    plans.  If execution exceeds [max_tuples], [eval_units] is the
    cost-model estimate instead and [matches] is [-1]. *)

(** {1 Table 1} — plan quality and optimization time, 8 queries × 5
    algorithms + bad plan *)

type table1_row = {
  query : Workload.query;
  cells : (Optimizer.algorithm * cell) list;
  bad : cell;
}

val table1 :
  ?sizes:(Workload.dataset -> int) -> ?max_tuples:int -> unit -> table1_row list

val print_table1 : table1_row list -> unit

val cell_to_json : cell -> Sjos_obs.Json.t

(** {1 Table 2} — optimization time and number of plans considered *)

type table2_row = { algo_name : string; opt_seconds : float; considered : int }

val table2 : ?size:int -> unit -> table2_row list
(** Plans considered by each algorithm on Q.Pers.3.d,
    each a fresh search ({!cold_opts}) over the data set at [size]
    (default {!Workload.default_size}). *)

val table2_expected : (string * int) list
(** The plans-considered counts {!table2} produces at the default size:
    DP 520, DPP′ 226, DPP 163, DPAP-EB 69, DPAP-LD 42, FP 18.  Any
    search change that moves them is a behavior change. *)

val table2_matches : table2_row list -> bool
(** Do the rows carry exactly {!table2_expected}, in order? *)

val print_table2 : table2_row list -> unit

(** {1 Table 3} — effect of data size (folding factors) *)

type table3_row = {
  label : string;
  per_fold : (int * float * float) list;
      (** folding factor, eval cost units, eval seconds *)
}

val table3 :
  ?base_size:int ->
  ?folds:int list ->
  ?max_tuples:int ->
  unit ->
  table3_row list
(** Evaluation cost units and seconds of each algorithm's plan, and of
    the bad plan, on Q.Pers.3.d over its data set replicated by each
    folding factor. *)

val print_table3 : table3_row list -> unit

(** {1 Figures 7 and 8} — the Te sweep for DPAP-EB *)

type te_point = { setting : string; opt_units_s : float; eval_units_s : float }
(** One bar of the figure: optimization and execution components of total
    query evaluation time (seconds). *)

val figure_te : ?base_size:int -> ?fold:int -> unit -> te_point list
(** Runs DPAP-EB for [Te = 1 .. node count] of Q.Pers.3.d, plus DP, DPP,
    DPAP-LD and FP for comparison, on its data set replicated [fold]
    times. *)

val print_figure : title:string -> te_point list -> unit
