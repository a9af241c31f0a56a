(** The local Unix account database — the thing identity boxing makes
    irrelevant for visitors, and the thing every classical mapping scheme
    (Figure 1) must modify as root.

    Accounts live both here (the kernel's authoritative table) and as a
    rendered [/etc/passwd] file in the filesystem, because the paper's
    identity box redirects [/etc/passwd] reads to a private copy with the
    visiting identity prepended. *)

type entry = {
  name : string;
  uid : int;
  gecos : string;  (** Free-text description field. *)
  home : string;
  shell : string;
}

type t

val create : unit -> t
(** A database containing [root] (uid 0) and [nobody] (uid 65534). *)

val add : t -> string -> (entry, string) result
(** [add t name] allocates the next free uid, with an empty gecos field,
    home [/home/<name>] and shell [/bin/sh].  Errors if the name is
    taken or empty. *)

val remove : t -> string -> (unit, string) result
(** Remove an account.  [root] and [nobody] cannot be removed. *)

val find : t -> string -> entry option
val find_uid : t -> int -> entry option
val name_of_uid : t -> int -> string
(** Account name, or ["uid<N>"] for unknown uids. *)

val entries : t -> entry list
(** All entries, sorted by uid. *)

val count : t -> int

val root_uid : int
val nobody_uid : int

val render_passwd : t -> string
(** The classic colon-separated [/etc/passwd] text. *)

val render_entry : entry -> string
(** One passwd line, no newline. *)

val pp : Format.formatter -> t -> unit
