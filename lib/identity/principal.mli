(** Principal names: the high-level identities that label identity boxes.

    A principal is a free-form text string, optionally qualified by the
    authentication scheme that established it, in the [scheme:name] form
    used by Chirp:

    - ["globus:/O=UnivNowhere/CN=Fred"]
    - ["kerberos:fred@nowhere.edu"]
    - ["hostname:laptop.cs.nowhere.edu"]
    - ["unix:dthain"]
    - ["Freddy"] (an unqualified, supervisor-chosen name)

    The supervising user may choose absolutely any name for a visitor, so
    every string denotes a valid principal. *)

type scheme =
  | Globus  (** GSI public-key identity: a certificate subject DN. *)
  | Kerberos  (** A Kerberos user\@realm name. *)
  | Hostname  (** A reverse-DNS hostname identity. *)
  | Unix  (** A local Unix account name. *)
  | Other of string  (** Any other lowercase scheme token. *)

type t = private {
  scheme : scheme option;  (** [None] for unqualified names. *)
  name : string;  (** The name proper, without the scheme prefix. *)
  canonical : string;
      (** The [scheme:name] (or bare name) form, built once by {!make}
          and {!of_string}: {!to_string} returns it without allocating. *)
}

val make : ?scheme:scheme -> string -> t
(** [make ?scheme name] builds a principal.  Raises [Invalid_argument]
    if [name] is empty. *)

val of_string : string -> t
(** [of_string s] parses [scheme:name] if the text before the first [':']
    is a known scheme token or a lowercase alphabetic word; otherwise the
    whole string is an unqualified name.  Subject DNs such as
    ["/O=X/CN=Y"] contain no [':'] and parse as unqualified. *)

val to_string : t -> string
(** [to_string t] is the canonical [scheme:name] (or bare name) form. *)

val scheme_to_string : scheme -> string
(** The lowercase wire token for a scheme. *)

val scheme_of_string : string -> scheme option
(** [scheme_of_string s] recognizes a scheme token; [None] when [s] is not
    a plausible scheme (empty, or containing non-token characters). *)

val equal : t -> t -> bool
(** Principals are equal when their canonical strings are equal. *)

val compare : t -> t -> int
(** Total order on canonical strings. *)

val anonymous : t
(** The distinguished principal ["anonymous"] used before authentication. *)

val nobody : t
(** The distinguished principal ["unix:nobody"]: the identity under which
    un-ACL'd resources are evaluated for visitors. *)

val matches_pattern : pattern:string -> t -> bool
(** [matches_pattern ~pattern t] is wildcard matching of the canonical
    string against [pattern] (see {!Wildcard}). *)

val pp : Format.formatter -> t -> unit
(** Pretty-print the canonical form. *)
