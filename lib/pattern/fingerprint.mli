(** Canonical forms and structural fingerprints for pattern trees.

    Two patterns that denote the same query — same multiset of labelled
    nodes, same axes, same tree shape, same (marked) order-by node — can
    still be numbered differently by callers: node indexes are an artifact
    of construction order, and siblings may be listed in any order.  This
    module quotients that away:

    - {!canonical} renumbers a pattern into a deterministic normal form
      (children visited in sorted structural order, preorder indexes), and
      returns the node mapping so plans chosen for the canonical pattern
      can be transported back to the original numbering;
    - {!fingerprint} is a stable content hash of that normal form, usable
      as a cache key across pattern instances, sessions and processes.

    The fingerprint covers labels (tag, attribute and text predicates),
    edge axes, tree shape and the order-by node; it is invariant under node
    renumbering and sibling reordering, and changes whenever any of those
    ingredients changes.  Patterns are not minimized first: two patterns
    that differ only by redundant nodes have different fingerprints (and
    different match tuple widths). *)

val canonical : Pattern.t -> Pattern.t * int array
(** [canonical pat] — the canonical renumbering of [pat] and the mapping
    from [pat]'s node indexes to canonical indexes. *)

val fingerprint : Pattern.t -> string
(** Hex digest of the canonical structure.  Equal for any two patterns
    with the same canonical form. *)

val short : string -> string
(** First 12 hex characters of a fingerprint, for display. *)

val structurally_equal : Pattern.t -> Pattern.t -> bool
(** [fingerprint a = fingerprint b]. *)
