(** Physical evaluation plans (§2.3 of the paper).

    A plan is a rooted tree of physical operators over a fixed pattern:
    index scans at the leaves (one per pattern node), binary structural
    joins (one per pattern edge, with an explicit Stack-Tree algorithm
    choice), and sort operators wherever an ordering has to be changed.

    Plans are pure descriptions: properties, costing, explanation and
    execution live in sibling modules. *)

open Sjos_pattern

type algo =
  | Stack_tree_anc  (** output ordered by the ancestor-side join node *)
  | Stack_tree_desc  (** output ordered by the descendant-side join node *)

type t =
  | Index_scan of int  (** scan the candidate set of a pattern node *)
  | Structural_join of { anc_side : t; desc_side : t; edge : Pattern.edge; algo : algo }
      (** [anc_side] must contain [edge.anc] and be ordered by it;
          [desc_side] must contain [edge.desc] and be ordered by it *)
  | Sort of { input : t; by : int }  (** reorder by a pattern node *)
  | Holistic of { mask : int; order : int; paths : int list }
      (** evaluate the whole twig with one holistic TwigStack pass:
          every candidate stream is scanned once in global document
          order, path solutions are buffered per root-to-leaf path and
          merge-joined on shared prefixes.  [mask] must bind every
          pattern node, [order] is the pattern root, and [paths] holds
          the root-to-leaf path masks (sorted) the cost model prices *)

val algo_to_string : algo -> string

val scan : int -> t
val join : anc_side:t -> desc_side:t -> edge:Pattern.edge -> algo:algo -> t
val sort : t -> by:int -> t

val path_masks : Pattern.t -> int list
(** Masks of the pattern's root-to-leaf paths, sorted. *)

val holistic_of_pattern : Pattern.t -> t
(** The holistic operator for a pattern — full node mask, ordered by the
    root, [paths = path_masks pat] — wrapped in a {!Sort} when the pattern
    requests an ordering by a non-root node. *)

val uses_holistic : t -> bool
(** Whether any operator in the plan is {!Holistic}. *)

val nodes_mask : t -> int
(** Bit mask of the pattern nodes bound by the plan's output. *)

val ordered_by : t -> int
(** The pattern node whose document order the output follows. *)

val join_count : t -> int
val sort_count : t -> int

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all operators. *)

val map_nodes : (int -> int) -> t -> t
(** Renumber every pattern-node reference (scan indexes, join-edge
    endpoints, sort keys) through the given mapping.  Used to transport a
    plan between a pattern and its canonical renumbering. *)

val equal : t -> t -> bool
