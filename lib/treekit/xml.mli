(** A small XML reader/writer for the navigational tree structure.

    The paper studies queries on "the bare tree structures of the parse
    trees of XML documents" (Section 2), so this parser keeps exactly that:
    element nesting and tag names.  Attributes are parsed and discarded;
    character data, comments, processing instructions and the XML
    declaration are skipped.  This is not a validating parser — it is the
    substrate needed to feed documents to the query engines. *)

val parse : string -> Tree.t
(** [parse s] parses an XML document (one root element) into a tree whose
    node labels are the tag names.
    @raise Parse_error.Error at the offending offset on input that is not
    well-formed under the supported subset: at the end of the input when
    it holds no element, at the second root when it holds several. *)

val parse_fragment : string -> Tree.t
(** Like {!parse}, but if the input contains several top-level elements they
    are wrapped under a synthetic root labeled ["#root"].
    @raise Parse_error.Error as {!parse} does. *)

val to_string : Tree.t -> string
(** Serialise a tree back to XML (tags only, [<a/>] for leaves). *)

val pp : Format.formatter -> Tree.t -> unit
(** Indented XML rendering. *)
