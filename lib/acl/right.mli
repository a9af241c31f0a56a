(** Individual access rights, as used in identity-box ACL entries.

    The paper's rights string ["rwlax"] plus the delete right used by
    Chirp.  The reserve right [v(...)] is not a {!t}: it is represented
    structurally on the ACL entry (see {!Entry}), because it carries the
    set of rights to be granted in a reserved namespace. *)

type t =
  | Read  (** [r]: read a file's contents. *)
  | Write  (** [w]: write or create files. *)
  | List  (** [l]: list directory entries and stat files. *)
  | Execute  (** [x]: execute a program. *)
  | Admin  (** [a]: modify the ACL itself. *)
  | Delete  (** [d]: remove files or directories. *)

val all : t list
(** Every right, in canonical [r w l x a d] order. *)

val to_char : t -> char
(** The single-character code used in ACL files. *)

val of_char : char -> t option
(** Inverse of {!to_char}; [None] for unknown characters. *)

val describe : t -> string
(** A short human-readable description, for diagnostics. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
