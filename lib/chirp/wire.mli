(** Netstring-style field framing for the Chirp wire protocol.

    A message is a sequence of length-prefixed fields:
    ["<len>:<bytes>"] concatenated.  Fields are opaque byte strings, so
    payloads (file data, ACL text) need no escaping.  Decoding is total:
    malformed input yields [Error], never an exception — a network peer
    is untrusted input.

    A length is written in canonical decimal: ["0"], or a nonzero digit
    followed by digits.  The decoder accepts no other form (no sign,
    radix prefix, underscore or leading zero), so a decode succeeds only
    on input that re-encoding gives back byte for byte. *)

val encode : string list -> string
(** Sized first, then written in one pass into a string of exactly
    {!size} bytes. *)

(** {1 Sized writing}

    For callers that lay out a message around an encoded one (the Chirp
    envelope): size it, allocate once, write in place. *)

val size : string list -> int
(** [String.length (encode fields)], computed without encoding. *)

val field_size : int -> int
(** The bytes a field of [n] data bytes takes, header included. *)

val write_header : Bytes.t -> int -> int -> int
(** [write_header buf pos n] writes the header ["<n>:"] of an [n]-byte
    field at [pos] and returns where the field's data starts. *)

val write : Bytes.t -> int -> string list -> int
(** [write buf pos fields] writes [encode fields] at [pos] and returns
    the position after it. *)

(** {1 Decoding} *)

val decode_range : string -> pos:int -> len:int -> (string list, string) result
(** [decode_range s ~pos ~len] decodes the [len] bytes of [s] from
    [pos] exactly as {!decode} decodes [String.sub s pos len] — the same
    fields or the same error — copying out only the fields themselves.
    Errors on a non-canonical or out-of-range length, a missing
    separator, or a field that runs past the range.  Raises
    [Invalid_argument] only if the range is not within [s]. *)

val decode : string -> (string list, string) result
(** [decode_range] over the whole string. *)

val spans : string -> pos:int -> len:int -> ((int * int) list, string) result
(** The fields {!decode_range} would return, as [(start, length)]
    positions in [s] instead of copies; the same errors. *)

val encode_int : int -> string
(** [string_of_int], without the C formatter: the digits are written
    straight into a string of their width. *)

val encode_int64 : int64 -> string
(** [Int64.to_string], the same way for any value a native [int]
    holds. *)
