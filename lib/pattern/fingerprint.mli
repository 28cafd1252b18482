(** Canonical numberings and structural fingerprints for pattern trees.

    Two patterns that denote the same query — same multiset of labelled
    nodes, same axes, same tree shape, same (marked) order-by node — can
    still be numbered differently by callers: node indexes are an artifact
    of construction order, and siblings may be listed in any order.  This
    module quotients that away in one bottom-up walk, which gives each
    node a structure code and orders its children by axis and code:

    - the canonical numbering is the preorder over those sorted children,
      so plans chosen under one numbering can be stored in canonical
      numbering and transported back to another;
    - the fingerprint is a stable content hash of the root's code, usable
      as a cache key across pattern instances, sessions and processes.

    The fingerprint covers labels (tag, attribute and text predicates),
    edge axes, tree shape and the order-by node; it is invariant under node
    renumbering and sibling reordering, and changes whenever any of those
    ingredients changes.  Patterns are not minimized first: two patterns
    that differ only by redundant nodes have different fingerprints (and
    different match tuple widths). *)

type canonical = {
  fingerprint : string;  (** hex digest of the canonical structure *)
  to_canon : int array;  (** pattern node index -> canonical index *)
  of_canon : int array;  (** canonical index -> pattern node index *)
}

val canonical : Pattern.t -> canonical
(** [canonical pat] — the fingerprint and canonical numbering of [pat].
    The root is canonical index 0; identical sibling subtrees keep their
    {!Pattern.children_of} order. *)

val fingerprint : Pattern.t -> string
(** [(canonical pat).fingerprint]: equal for any two patterns with the
    same canonical form. *)

val short : string -> string
(** First 12 hex characters of a fingerprint, for display. *)
