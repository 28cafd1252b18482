(** Statuses: the optimizer's search states (Definitions 1-3 of the paper).

    A status partitions the pattern nodes into connected clusters — each an
    already-evaluated sub-pattern — and records, per cluster, the sub-plan
    that computes it (whose {!Plan.ordered_by} is the node its
    intermediate result is ordered by) and its estimated cardinality.
    The accumulated [cost] counts every operation performed so far (index
    scans included, so plan costs are comparable across shapes). *)

open Sjos_pattern
open Sjos_plan

type cluster = {
  mask : int;  (** pattern nodes in the cluster (bit [i] = node [i]) *)
  plan : Plan.t;  (** sub-plan producing the cluster *)
  card : float;  (** estimated cardinality of the sub-plan's result *)
}

type t = {
  clusters : cluster list;  (** sorted by [mask] — canonical *)
  joined : int;  (** mask over pattern-edge indexes already evaluated *)
  cost : float;  (** accumulated cost from the start status *)
}

type key = { parts : (int * int) list; kjoined : int }
(** Canonical identity of a status: the sorted [(mask, order)] pairs
    ([order] is {!Plan.ordered_by} of the cluster's plan) plus
    the consumed-edge mask.  Two statuses with equal keys are the same
    search state and only the cheaper is worth keeping.

    For statuses {e reachable} from [start] on a tree pattern the edge
    mask is derivable from the partition (a connected cluster of [k]
    nodes has consumed exactly its [k-1] internal edges), but the key
    must not rely on reachability: hand-built or corrupted statuses with
    equal partitions and different remaining-edge sets would otherwise
    collide in hash-based dedup and the survivor would corrupt the
    search. *)

val key : t -> key
val level : t -> int
(** Number of edges evaluated so far (the paper's status level). *)

val is_final : t -> bool
(** Exactly one cluster left. *)

val cluster_of : t -> int -> cluster
(** The cluster containing a pattern node.  Raises [Not_found] if absent
    (cannot happen for in-range nodes). *)

val cluster_map : n:int -> t -> cluster array
(** [cluster_map ~n t] is the node→cluster map as a dense array over the
    [n] pattern nodes — build once per status, then every lookup is O(1)
    instead of {!cluster_of}'s list scan.  Raises [Invalid_argument] if
    some node below [n] is in no cluster. *)

val popcount : int -> int
(** Word-parallel (SWAR) population count. *)

val start :
  factors:Sjos_cost.Cost_model.factors ->
  provider:Costing.provider ->
  Pattern.t ->
  t
(** The start status [S_0]: one singleton cluster per pattern node, each
    ordered by itself, with the index-scan costs already accumulated. *)

val multi_cluster_count : t -> int
(** Number of clusters with more than one pattern node (left-deep statuses
    have at most one — the "growing node"). *)

val pp : Pattern.t -> t Fmt.t
