(** Per-directory access control lists.

    Inside an identity box the Unix protection scheme is abandoned in
    favour of ACLs: each directory carries a file (named {!filename})
    whose lines grant rights to principal patterns.  A principal's
    effective rights are the {e union} of the rights of every entry whose
    pattern matches — so a specific grant and an organization-wide
    wildcard compose.  Newly created directories inherit the parent ACL,
    except under the reserve right (see {!Entry.t.reserve} and
    {!reserve_for}), which mints a fresh ACL owned by the caller. *)

type t
(** An ordered list of entries.  Order is preserved for display but does
    not affect {!check}, which takes the union of matches.  Internally
    the list is compiled once, on first use, into a matcher — an exact
    hash over literal patterns plus the wild entries — with a
    per-principal memo of effective rights, so repeated checks cost one
    probe instead of a linear scan. *)

val filename : string
(** The name of the ACL file within each directory: [".__acl"]. *)

val empty : t
(** The empty ACL: nobody can do anything (visitors fall back to Unix
    permissions as [nobody]; see {!Idbox.Enforce}). *)

val of_entries : Entry.t list -> t
val entries : t -> Entry.t list

val length : t -> int
(** [List.length (entries t)], without building the list. *)

val rights_of : t -> Idbox_identity.Principal.t -> Rights.t
(** Union of the direct rights of every entry covering the principal. *)

val check : t -> Idbox_identity.Principal.t -> Right.t -> bool
(** [check t who r] — does [who] hold right [r] here? *)

val memo_capacity : int
(** The per-matcher memo bound: once a matcher has memoized this many
    distinct principals, the memo is flushed before the next insert (a
    server fielding an unbounded stream of one-shot principals must not
    grow memory without limit).  Flushed principals simply recompute on
    their next probe — verdicts never change. *)

val memo_evictions : unit -> int
(** Total memo entries discarded by capacity flushes, across all ACLs
    (process-wide, monotone) — observability for the bound above. *)

val reserve_for : t -> Idbox_identity.Principal.t -> Rights.t option
(** The union of reserve grants of all entries covering the principal,
    or [None] if no covering entry carries a reserve right. *)

val set_entry : t -> Entry.t -> t
(** Replace the entry with the same pattern text (dropping any later
    duplicates of that pattern), or append.  Appending is O(1). *)

val remove_pattern : t -> string -> t
(** Drop the entry whose pattern text equals the argument, if any. *)

val for_owner : Idbox_identity.Principal.t -> t
(** The ACL written into a fresh home or reserved directory when no
    explicit grant set applies: the owner holds every right. *)

val grant : t -> pattern:string -> Rights.t -> t
(** [grant t ~pattern rights] adds rights to the pattern's entry,
    creating the entry if needed. *)

val of_string : string -> (t, string) result
(** Parse ACL file content: one entry per line; blank lines and lines
    starting with [#] are ignored. *)

val of_string_exn : string -> t
val to_string : t -> string
(** Render as file content, one entry per line, trailing newline. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
