(** Constant-time structural predicates over the interval encoding, and the
    axis vocabulary used by pattern edges. *)

type axis =
  | Child  (** the [/] edge: parent-child *)
  | Descendant  (** the [//] edge: ancestor-descendant, any depth *)

val axis_to_string : axis -> string

val is_ancestor : Node.t -> Node.t -> bool
(** [is_ancestor a d] — [a] properly contains [d]. *)

val is_parent : Node.t -> Node.t -> bool
val is_descendant : Node.t -> Node.t -> bool
val is_child : Node.t -> Node.t -> bool

val related : axis -> anc:Node.t -> desc:Node.t -> bool
(** [related axis ~anc ~desc] tests the containment required by a pattern
    edge with the given axis. *)

val disjoint : Node.t -> Node.t -> bool
(** Neither node contains the other. *)

val document_order : Node.t -> Node.t -> int
(** Total order by [start_pos]. *)
