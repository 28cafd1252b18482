(** Candidate node sets for pattern-tree nodes.

    A pattern node's label is a predicate (tag test plus optional attribute
    and text-content tests).  Its candidate set is the document-ordered
    array of elements satisfying the predicate — the paper assumes these
    sets "can be found efficiently, for instance, through an index scan"
    (§2.2.1); this module is that index scan. *)

open Sjos_xml

type spec = {
  tag : string option;  (** [None] is the wildcard [*] *)
  attr : (string * string) option;  (** attribute name/value equality *)
  text : string option;  (** text-content equality *)
}

val any : spec
(** The wildcard spec: matches every element. *)

val of_tag : string -> spec

val matches : spec -> Node.t -> bool
(** Does the node satisfy the predicate? *)

val select : Element_index.t -> spec -> Node.t array
(** Document-ordered candidate array for a spec.  Tag lookups hit the
    element index; attribute/text predicates filter the tag bucket with a
    single-pass count-and-fill (no intermediate lists). *)

val select_cols : Element_index.t -> spec -> Cols.t
(** Flat-column counterpart of {!select} for the batch execution engine.
    Plain tag lookups reuse the per-tag column cache; residual predicates
    filter then extract fresh columns. *)

val is_pure_tag : spec -> bool
(** [true] when the spec is a plain tag test with no attribute or text
    predicate — the case whose candidate list is exactly one tag's
    column file in the disk store. *)

val spec_to_string : spec -> string
