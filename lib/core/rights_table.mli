(** The rights table: every ACL question a call asks, written once.

    Each call asks §6's question — does this identity hold this right in
    the directory whose ACL governs this object? — once or a few times.
    Here those questions are data, one {!row} per operation, run by one
    {!authorize} for every engine.  {!Box} (trap and emulate), {!Kbox}
    (the in-kernel hook) and the Chirp server keep only their transport:
    each maps its call to a row, makes the row's paths canonical and
    asks.  The ACL side effects are written here once too, each acting
    through the engine's own [delegate] so that every charge and counter
    stays the engine's.  DESIGN.md ("The rights table") lists the rows. *)

(** The directory whose ACL answers a question. *)
type target =
  | Object
      (** The object itself ({!Enforce.check_object}): its governing
          directory's ACL, the final link followed; with no ACL,
          [nobody] against the object. *)
  | Governing  (** The object's governing directory, as a directory. *)
  | Entry  (** The directory holding the named entry; no link followed. *)
  | Self  (** The path itself, as a directory. *)

type question = {
  arg : int;  (** Which path argument, from 0. *)
  target : target;
  right : Idbox_acl.Right.t;
  or_write : bool;  (** Write stands in for [right] (delete, in plain [rwlax] ACLs). *)
}

type row = {
  guard : bool;  (** Refuse a path naming an ACL file ([EACCES]). *)
  reserve : bool;
      (** [mkdir]: first, the reserve right in the first question's
          directory mints a namespace the caller owns (§4). *)
  questions : question list;  (** In order; the first refusal answers. *)
  or_else : question list;
      (** Asked when [questions] refuse: [rmdir] asks the directory
          itself, so the owner of a reserved namespace may retire it. *)
}

type limit = { grant : Idbox_acl.Rights.t; scope : string }

type caller = {
  identity : Idbox_identity.Principal.t;
  limit : limit option;
      (** A delegated grant and scope, checked with every question: its
          right (or write, where it stands in) must be in [grant], and
          the path it judges — the object, or the directory — under the
          absolute prefix [scope].  [None]: full authority. *)
}

(** {1 Rows} *)

val read : row
(** [open] for reading; Chirp [get] and [checksum]. *)

val write : row
(** [open] for writing or creating; Chirp [put]. *)

val execute : row
(** [spawn]; Chirp [exec]. *)

val stat : row
val unlink : row
val rename : row

type rule =
  | Ask of row
  | Refuse of Idbox_vfs.Errno.t  (** [chown]: never a visitor's. *)
  | Signal of int  (** [kill] this pid: only one under the caller's identity. *)
  | Free  (** Descriptor and process calls: nothing to ask. *)

val of_request : Idbox_kernel.Syscall.request -> rule * string list
(** The rule a system call answers to, and the paths it names in the
    row's argument order: [link]'s new path, then its target.  A
    symlink's target is text, not a path, and is not listed. *)

(** {1 Asking} *)

val authorize :
  Enforce.t -> caller -> row -> string list -> (unit, Idbox_vfs.Errno.t) result
(** Run a row over canonical paths: the name guard, the reserve right,
    then each question — the caller's limit, then the ACL.  A refusal is
    [EACCES]. *)

val guard : row -> string list -> (unit, Idbox_vfs.Errno.t) result
(** The name guard alone, for a call a box serves from a remote mount. *)

val permits : Enforce.t -> caller -> row -> string list -> bool
(** The limit half alone: the Chirp server's [exec] gate, before the box
    it spawns in asks the ACL. *)

(** {1 The ACL side effects}

    Each asks its own row first.  Paths are canonical. *)

type delegate = Idbox_kernel.Syscall.request -> Idbox_kernel.Syscall.result

val mkdir :
  Enforce.t -> caller -> delegate:delegate -> string -> mode:int ->
  (unit, Idbox_vfs.Errno.t) result
(** The new directory's ACL: under the reserve right, a fresh one
    granting the caller the reserved rights; under write, the parent's. *)

val rmdir :
  Enforce.t -> caller -> delegate:delegate -> string ->
  (unit, Idbox_vfs.Errno.t) result
(** A directory holding only its ACL file is empty: {!remove_dir}. *)

val remove_dir : Enforce.t -> delegate:delegate -> string -> Idbox_kernel.Syscall.result
(** Remove the ACL file, drop the cached ACL, remove the directory. *)

val readdir :
  Enforce.t -> caller -> delegate:delegate -> string ->
  (string list, Idbox_vfs.Errno.t) result

val visible : string list -> string list
(** A listing without the ACL file. *)

val getacl :
  Enforce.t -> caller -> delegate:delegate -> string ->
  (string, Idbox_vfs.Errno.t) result
(** The ACL text ([""] for none) of the path if it is a directory, else
    of its governing directory, under list rights there. *)

val setacl :
  Enforce.t -> caller -> string -> entry:string -> (unit, Idbox_vfs.Errno.t) result
(** Parse the entry ([EINVAL]), then under admin rights add it or
    replace the entry with the same pattern. *)
