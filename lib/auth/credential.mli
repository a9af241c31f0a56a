(** Unified client credentials, one constructor per authentication
    method a Chirp server supports (paper §4). *)

type t =
  | Gsi of Ca.certificate  (** A GSI certificate (possession implied). *)
  | Krb of Kerberos.ticket  (** A Kerberos ticket. *)
  | Unix_account of string  (** A local account name, asserted. *)
  | Host of string  (** The client's (reverse-DNS) hostname. *)

val method_name : t -> string
(** The wire token for the method: ["globus"], ["kerberos"], ["unix"],
    ["hostname"]. *)
