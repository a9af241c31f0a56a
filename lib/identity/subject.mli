(** X.509-style subject distinguished names, as used by GSI identities.

    A subject is an ordered sequence of relative distinguished names
    (attribute/value pairs) rendered in the slash form used throughout
    the grid: ["/O=UnivNowhere/CN=Fred"]. *)

type rdn = {
  attr : string;  (** Attribute type, e.g. ["O"], ["OU"], ["CN"]. *)
  value : string;  (** Attribute value; may contain any non-['/'] text. *)
}

type t = rdn list
(** A subject DN, outermost component first. *)

val of_string : string -> (t, string) result
(** [of_string s] parses the slash form.  Errors on empty input, missing
    leading slash, or a component without ['=']. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
(** Canonical slash-form rendering. *)

val common_name : t -> string option
(** The value of the last [CN] component, if any. *)

val organization : t -> string option
(** The value of the first [O] component, if any. *)

val is_prefix : prefix:t -> t -> bool
(** [is_prefix ~prefix t] holds when [t] extends [prefix] component-wise:
    the basis of organization-level trust ("anyone under /O=X/"). *)

val append : t -> rdn -> t
(** [append t rdn] adds a component at the end (innermost position). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
