(** Query pattern trees (§2.1 of the paper).

    A pattern is a rooted node-labelled tree [Q = (V_Q, E_Q)].  Node labels
    are predicates over elements ({!Sjos_storage.Candidate.spec}); each edge
    carries an axis: [/] (parent-child) or [//] (ancestor-descendant).
    A match is a total mapping from pattern nodes to document nodes that
    satisfies every label and every edge's containment relationship.

    Nodes are identified by dense indexes [0 .. node_count - 1]; node [0] is
    the pattern root, and every edge is directed from the ancestor side to
    the descendant side. *)

open Sjos_xml
open Sjos_storage

type edge = {
  anc : int;  (** index of the ancestor-side node *)
  desc : int;  (** index of the descendant-side node *)
  axis : Axes.axis;
}

type t

val max_nodes : int
(** Largest supported pattern size ([Sys.int_size - 2], 61 on 64-bit
    platforms): node sets are native-[int] bitmasks and the full mask
    [(1 lsl n) - 1] must not overflow.  {!create} rejects larger
    patterns; without the check the optimizer's masks would silently
    wrap and produce wrong plans. *)

val create :
  ?order_by:int ->
  labels:Candidate.spec array ->
  edges:(int * Axes.axis * int) array ->
  unit ->
  t
(** [create ~labels ~edges ()] builds a pattern with node [i] labelled
    [labels.(i)] and one edge [(anc, axis, desc)] per entry.  The edges
    must form a tree rooted at node [0] with every edge directed away from
    the root.  [order_by] optionally requests the final result sorted by
    that node.  Raises [Invalid_argument] when the input is not such a
    tree. *)

val node_count : t -> int
val edge_count : t -> int
val label : t -> int -> Candidate.spec
val labels : t -> Candidate.spec array
val edges : t -> edge list
val order_by : t -> int option
val with_order_by : t -> int option -> t

val name : t -> int -> string
(** Display name of a pattern node in index order: ["A"], ["B"], ... ["Z"],
    then ["AA"], ["AB"], ... (bijective base-26, always distinct). *)

val edge_between : t -> int -> int -> edge option
(** The unique edge joining two nodes, in either direction. *)

val neighbors : t -> int -> (int * edge) list
(** Adjacent nodes with the connecting edge (both directions). *)

val parent_of : t -> int -> (int * edge) option
(** Tree parent of a node (its ancestor-side neighbor on the path to the
    root), [None] for the root. *)

val children_of : t -> int -> (int * edge) list
(** Tree children (descendant-side neighbors). *)

val matches_mapping : t -> Document.t -> Node.t array -> bool
(** [matches_mapping q doc h] checks whether the assignment [h] (indexed by
    pattern node) is a match of [q] in [doc]: every label holds and every
    edge's containment holds.  A reference-semantics oracle for tests. *)

val is_path : t -> bool
(** Is the pattern a simple path (every node has at most one child)? *)

val depth : t -> int
(** Longest root-to-leaf edge count. *)

val to_string : t -> string
(** Re-parseable textual form, e.g. ["manager(//employee(/name),//dept)"]. *)
