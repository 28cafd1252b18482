(** Candidate node sets for pattern-tree nodes.

    A pattern node's label is a predicate (tag test plus optional attribute
    and text-content tests).  Its candidate set is the document-ordered
    columns ({!Cols.t}) of the elements satisfying the predicate — the
    paper assumes these sets "can be found efficiently, for instance,
    through an index scan" (§2.2.1); this module is that index scan. *)

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

val select : Element_index.t -> spec -> Cols.t
(** Document-ordered candidate columns for a spec.  A plain tag is its
    {!Element_index.cols}, a tag with an attribute predicate its
    {!Element_index.attr_cols}; a text predicate filters those rows, and
    the wildcard filters the document's {!Document.positions} (the
    unfiltered wildcard is those columns themselves), on every call.
    Callers must not mutate the result. *)

val is_pure_tag : spec -> bool
(** [true] when the spec is a plain tag test with no attribute or text
    predicate — the case whose candidate list is exactly one tag's
    column file in the disk store. *)

val spec_to_string : spec -> string
