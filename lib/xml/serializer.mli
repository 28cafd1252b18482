(** Serialization of documents back to XML text. *)

val escape_text : string -> string
(** Escape [&], [<] and [>] for character data. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets and double quotes for attribute
    values. *)

val to_string : ?indent:bool -> Document.t -> string
(** Serialize the whole document.  With [~indent:true] (default) each
    element starts on its own line, indented two spaces per level. *)

val to_file : ?indent:bool -> string -> Document.t -> unit

val subtree_to_string : Document.t -> Node.t -> string
(** Serialize only the subtree rooted at the given node (no indentation). *)
