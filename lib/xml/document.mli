(** Immutable XML documents.

    A document is an array of {!Node.t} values in pre-order; a node's [id]
    is its index in the array.  All structural navigation needed by the
    storage, estimation and execution layers is answered from the interval
    encoding, without pointer chasing. *)

type t

val of_nodes : Node.t array -> t
(** [of_nodes nodes] wraps a pre-order node array.  Raises
    [Invalid_argument] if ids are not consecutive from 0 or a node's
    [start_pos] is not greater than the previous node's, so ids are
    document order.  The rest of the interval encoding is checked by
    {!validate}. *)

val size : t -> int
(** Number of element nodes. *)

val node : t -> int -> Node.t
(** [node doc id] is the node with identifier [id].
    Raises [Invalid_argument] on out-of-range ids. *)

val root : t -> Node.t
(** The document root element.  Raises [Invalid_argument] on an empty
    document. *)

val nodes : t -> Node.t array
(** The underlying pre-order array (do not mutate). *)

val positions : t -> Cols.t
(** The flat positional columns ([ids] is the identity), built once on
    first use and cached; indexed by node id.  The batch execution
    kernels compare machine integers read from these columns instead of
    dereferencing {!Node.t} records on the join hot path.  Do not
    mutate.  Safe to call from any domain. *)

val children : t -> Node.t -> Node.t list
(** Direct element children, in document order. *)

val descendants : t -> Node.t -> Node.t list
(** All proper descendants, in document order. *)

val parent : t -> Node.t -> Node.t option
(** Parent element, or [None] for the root. *)

val ancestors : t -> Node.t -> Node.t list
(** Proper ancestors, nearest first. *)

val iter : (Node.t -> unit) -> t -> unit
(** Pre-order iteration over all nodes. *)

val tags : t -> string list
(** Distinct tag names, sorted. *)

val count_tag : t -> string -> int
(** Number of elements with the given tag. *)

val max_level : t -> int
(** Deepest level present (0 for a single-root document). *)

val max_pos : t -> int
(** One past the largest [end_pos]; the extent of the position space
    (1 for an empty document).  Computed once by {!of_nodes}. *)

val validate : t -> (unit, string) result
(** Full structural validation of the interval encoding: intervals nest
    properly, levels and parents are consistent.  Used by tests and by the
    parser/builder as a post-condition. *)
