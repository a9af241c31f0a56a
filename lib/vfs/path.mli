(** Slash-separated path manipulation for the simulated filesystem.

    Paths are plain strings at the API boundary; this module provides the
    lexical operations (normalization, joining, splitting) that the
    filesystem and the interposition agent share.  Lexical normalization
    deliberately does {e not} collapse [".."] across symlinks — the
    filesystem resolves components one at a time — but it is used for
    display and for prefix tests on already-resolved paths.

    {b Normal paths.}  A path is {e normal} when it is absolute, has no
    empty, ["."] or [".."] component and, unless it is ["/"], no
    trailing ['/'].  The resolvers produce normal paths and the call
    path passes them along, so the functions below first scan their
    input once, without allocating: {!normalize} and {!join} return a
    normal result as it is, and {!dirname} and {!basename} slice a
    normal path at its last ['/'].  Any other input takes the
    component-list code; both give the same answer. *)

val root : string
(** ["/"]. *)

val is_absolute : string -> bool

val is_normal : string -> bool
(** The path is normal (see above): [is_normal p] iff [normalize p = p]. *)

val components : string -> string list
(** Non-empty components, ["."] removed, [".."] preserved.
    [components "/a//b/./c"] is [["a"; "b"; "c"]]. *)

val component_count : string -> int
(** [List.length (components p)], counted without building the list. *)

val component_end : string -> int -> int
(** [component_end p i] is the index of the first ['/'] in [p] at or
    after [i], or [String.length p]: the end of the component that
    starts at [i].  For scanning a path in place. *)

val of_components : string list -> string
(** Absolute path from components; [of_components []] is ["/"]. *)

val normalize : string -> string
(** Lexical cleanup of an absolute path: collapse [//] and [.], resolve
    [".."] lexically, never above the root.  A normal path is returned
    as it is (physically the same string). *)

val join : string -> string -> string
(** [join base p] is [p] when [p] is absolute, else the normalized
    concatenation. *)

val basename : string -> string
(** Final component; ["/"] for the root. *)

val dirname : string -> string
(** All but the final component; ["/"] for the root. *)

val split : string -> (string * string) option
(** [split p] is [Some (dirname, basename)], or [None] for the root. *)

val is_prefix : prefix:string -> string -> bool
(** Component-wise prefix test on normalized absolute paths:
    [is_prefix ~prefix:"/a/b" "/a/b/c"] but not ["/a/bc"].  When both
    are normal ({!is_normal}) it compares them in place, allocating
    nothing. *)

val strip_prefix : prefix:string -> string -> string option
(** [strip_prefix ~prefix:"/a" "/a/b/c"] is [Some "/b/c"];
    the remainder is ["/"] when the paths are equal. *)

val pp : Format.formatter -> string -> unit
