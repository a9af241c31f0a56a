(** Unix permission bits and the classic owner/other access check.

    The simulated kernel models owner and other classes (groups are not
    needed by any experiment in the paper; the visiting-user fallback
    treats the visitor as [nobody], which is never the owner).  The
    superuser (uid 0) passes every check except execute on a file with no
    execute bit at all, matching Linux behaviour. *)

type access =
  | R  (** read *)
  | W  (** write *)
  | X  (** execute / search *)

val check : uid:int -> owner:int -> mode:int -> access -> bool
(** [check ~uid ~owner ~mode a]: does [uid] have [a] on a file owned by
    [owner] with permission bits [mode] (e.g. [0o644])? *)

val default_file_mode : int
(** [0o644]. *)

val default_dir_mode : int
(** [0o755]. *)

val to_string : mode:int -> string
(** Render bits in [ls -l] style, e.g. ["rw-r--r--"]. *)

val pp : Format.formatter -> int -> unit
