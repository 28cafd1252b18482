(** Human-readable plan rendering, in the spirit of SQL [EXPLAIN]. *)

open Sjos_pattern

val to_string : Pattern.t -> Plan.t -> string
(** Multi-line operator tree, e.g.:

    {v
      STJ-Anc A//B -> ordered by A
      +- IdxScan A (manager)
      +- Sort by B
         +- STJ-Desc B/C -> ordered by C
            ...
    v} *)

val with_costs :
  Sjos_cost.Cost_model.factors ->
  Costing.provider ->
  Pattern.t ->
  Plan.t ->
  string
(** Like {!to_string} with per-operator estimated cardinalities and costs. *)

val one_line : Pattern.t -> Plan.t -> string
(** Compact nested form, e.g. ["((A anc B) desc (C))"], for logs and test
    failure messages. *)

(** {1 EXPLAIN ANALYZE}

    [measured] is the per-operator execution profile the executor collects
    (actual output rows, the work each operator charged and its self wall
    time); [analyze] joins it with the optimizer's estimates to
    produce one row per plan operator — the estimated-vs-actual view that
    checks the cost model per operator rather than per plan. *)

type measured = {
  mplan : Plan.t;  (** the operator (root of this measured subtree) *)
  rows : int;  (** tuples this operator output *)
  work : Sjos_obs.Work.t;
      (** what this operator alone charged; its actual cost units are
          {!Sjos_cost.Cost_model.cost_units} of it *)
  seconds : float;  (** wall time of this operator alone *)
  inputs : measured list;  (** profiles of the operator's inputs *)
}

type analysis_row = {
  op : Plan.t;
  depth : int;  (** nesting depth in the plan tree (root = 0) *)
  est_rows : float;  (** optimizer's cardinality estimate for the output *)
  actual_rows : int;
  est_units : float;  (** cost-model estimate for this operator alone *)
  actual_units : float;
  q_error : float;
      (** max(est/act, act/est) with both sides clamped to ≥ 1 *)
  seconds : float;
}

val q_error : est:float -> actual:float -> float
(** Moerkotte's q-error, [max (est/act) (act/est)] with both operands
    clamped to at least 1 so empty results stay finite. *)

val analyze :
  Sjos_cost.Cost_model.factors ->
  Costing.provider ->
  Pattern.t ->
  measured ->
  analysis_row list
(** One row per operator, in pre-order (an operator before its inputs,
    ancestor side first) — the same order {!to_string} renders. *)

val analyze_to_string : Pattern.t -> analysis_row list -> string
(** Fixed-width per-operator table with estimated vs. actual cardinality,
    q-error, cost units and wall time. *)

val analysis_to_json : Pattern.t -> analysis_row list -> Sjos_obs.Json.t
