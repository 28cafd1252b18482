(** Plan cost computation against a cardinality provider.

    The provider abstracts over where cardinalities come from: the
    positional-histogram estimator during optimization, or an exact oracle
    in tests.  Clusters are bit masks of pattern nodes (bit [i] = node [i]). *)

open Sjos_pattern

type provider = {
  node_card : int -> float;  (** candidate-set size of a pattern node *)
  cluster_card : int -> float;  (** estimated matches of a cluster mask *)
}

val constant_provider : float -> provider
(** Every node and cluster has the given cardinality; for tests. *)

val join_cost :
  Sjos_cost.Cost_model.factors -> Plan.algo -> anc:float -> output:float ->
  float
(** [join_cost f algo ~anc ~output] — price of one Stack-Tree join whose
    ancestor-side input has [anc] items and whose output has [output]
    items (§2.2.2).  The one place a join is priced: {!cost}, every
    search and every plan builder call it. *)

val cost : Sjos_cost.Cost_model.factors -> provider -> Pattern.t -> Plan.t -> float
(** Total estimated cost: index access for every scan, the Stack-Tree
    formula for every join (with [|A|] the ancestor-side cluster
    cardinality and [|AB|] the output cluster cardinality), and
    [n log n] for every sort. *)

val operator_cost :
  Sjos_cost.Cost_model.factors -> provider -> Plan.t -> float
(** Cost of the root operator of the given (sub-)plan alone. *)
