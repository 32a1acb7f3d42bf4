(** The slot directory of a pattern bank ({!Twig_matcher}): slot
    allocation, label interning and per-label lists, patched in place.

    Each live pattern owns a slot; a removed pattern's slot goes to the
    next {!add}.  Labels are interned from 1.  A pattern is filed under
    a few integer keys (the labels it tests; key 0 is the bank's own,
    say for patterns with a wildcard).  A matching pass reads a key's
    members as a dense array prefix, straight from the fields.  Filing
    costs the pattern's key count; removal costs its key count times the
    key count of each slot moved into the gaps: every member keeps a
    back-pointer, and removal swaps the key's last member into the
    leaver's place.  Nothing is rebuilt. *)

module Labels : Hashtbl.S with type key = string

type back
(** The back-pointers: per slot, its keys and its index under each. *)

type t = private {
  labels : int Labels.t;  (** interned labels, from 1 *)
  mutable members : int array array;
      (** per key: its slots, the first [len.(key)] live *)
  mutable len : int array;  (** per key; a key past its length has no members *)
  back : back;
  mutable free : int list;
  mutable used : int;  (** slots ever handed out: every slot is below it *)
  mutable live : int;  (** slots holding a pattern *)
}

val create : unit -> t

val intern : t -> string -> int
(** The label's id, interning it on first sight. *)

val add : t -> int array -> int
(** [add t keys] takes a free slot and files it under each of [keys]
    (distinct and non-negative). *)

val remove : t -> int -> unit
(** Unfile a live slot from every key and free it. *)
