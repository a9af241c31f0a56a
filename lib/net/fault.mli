(** Deterministic fault injection for the simulated network.

    Everything here is a pure function of a seed and the simulated
    clock: the same {!plan} applied to the same sequence of calls
    produces the same faults, byte for byte.  Probabilistic faults
    (drops, resets, corruption) draw from a seeded splitmix64 stream;
    scheduled faults (partitions) are clock windows.

    The corruption primitives ({!flip_bytes}, {!truncate_string},
    {!duplicate_slice}, {!mangle}) are exported so protocol fuzzers can
    feed decoders exactly the damage the network can inflict. *)

(** {1 Deterministic random stream} *)

type rng

val rng : int64 -> rng
(** A splitmix64 stream seeded with the given value. *)

val bits : rng -> int64
(** The next 64 pseudo-random bits. *)

val uniform : rng -> float
(** The next draw in [[0, 1)]. *)

val int_below : rng -> int -> int
(** [int_below r n] is uniform in [[0, n)]; [0] when [n <= 0]. *)

val chance : rng -> float -> bool
(** [chance r p] is true with probability [p].  Draws nothing when
    [p <= 0.] or [p >= 1.], so a calm profile perturbs no stream. *)

(** {1 Fault profiles} *)

type profile = {
  drop : float;
      (** Per-leg probability that a message vanishes in flight.  A
          dropped request never reaches the handler; a dropped response
          vanishes after the handler ran.  Either way the caller waits
          out its timeout and sees [ETIMEDOUT]. *)
  reset : float;
      (** Probability the connection resets mid-exchange: the handler
          runs, but the caller sees [ECONNRESET] instead of the
          response. *)
  corrupt : float;  (** Probability the response arrives with flipped bytes. *)
  truncate : float;  (** Probability the response arrives cut short. *)
  jitter : float;  (** Probability of added one-way latency. *)
  max_jitter_ns : int64;  (** Upper bound on the added latency. *)
}

val calm : profile
(** All probabilities zero: a perfect network. *)

val profile :
  ?drop:float ->
  ?reset:float ->
  ?corrupt:float ->
  ?truncate:float ->
  ?jitter:float ->
  ?max_jitter_ns:int64 ->
  unit ->
  profile
(** {!calm} with the given fields overridden. *)

val wan :
  ?drop:float ->
  ?reset:float ->
  ?jitter:float ->
  ?max_jitter_ns:int64 ->
  unit ->
  profile
(** A wide-area link: defaults to 1% drop and 90%-probable added
    latency of up to 30 ms — the profile a geo world attaches
    per-endpoint to the {e remote} region's addresses, leaving
    intra-region traffic calm. *)

(** {1 Storage fault profiles}

    Crash damage for a simulated stable-storage device (the Chirp WAL,
    {!Idbox_chirp.Wal}).  Damage is drawn from the same seeded-stream
    discipline as the network profiles but models a power cut hitting a
    disk: it is confined to bytes not yet synced — the contract a WAL
    buys — plus, possibly, a torn fragment of a write that was in
    flight when the power died. *)

type storage_profile = {
  torn_write : float;
      (** Probability a crash leaves a torn tail: the last unsynced
          record cut mid-record, or — when everything was synced — a
          partial fragment of an in-flight record appended after the
          durable prefix.  Recovery must discard it by checksum. *)
  lose_tail : float;
      (** Probability the unsynced suffix loses whole records from the
          end (the page cache never reached the platter). *)
  flip : float;
      (** Probability of flipped bytes somewhere in the unsynced suffix
          (a sector being written during the power dip). *)
}

val calm_storage : storage_profile
(** All probabilities zero: an ideal disk. *)

val storage_profile :
  ?torn_write:float -> ?lose_tail:float -> ?flip:float -> unit ->
  storage_profile
(** {!calm_storage} with the given fields overridden. *)

(** {1 Fault plans} *)

type window = {
  from_ns : int64;
  until_ns : int64;
  between : string * string;
      (** Two host names (the part of an address before [':']); traffic
          in either direction between them is cut while the simulated
          clock is in [[from_ns, until_ns)]. *)
}

val window : from_ns:int64 -> until_ns:int64 -> between:string * string -> window
(** A partition window, cutting both directions. *)

type plan = {
  seed : int64;
  default_profile : profile;
  per_endpoint : (string * profile) list;
      (** Overrides, keyed by destination address. *)
  partitions : window list;
}

val plan :
  ?seed:int64 ->
  ?default_profile:profile ->
  ?per_endpoint:(string * profile) list ->
  ?partitions:window list ->
  unit ->
  plan
(** Defaults: seed 0, calm everywhere, no partitions. *)

val profile_for : plan -> string -> profile
(** The effective profile for a destination address. *)

val host_of : string -> string
(** ["host:port"] -> ["host"] (the whole string when there is no [':']). *)

val partitioned : plan -> now:int64 -> src:string -> dst:string -> bool
(** Is traffic from [src] to [dst] cut at simulated time [now]?
    Addresses are compared by host. *)

(** {1 Corruption injectors} *)

val flip_bytes : rng -> string -> string
(** Flip 1–4 bytes at random positions (identity on [""]). *)

val truncate_string : rng -> string -> string
(** Cut the string at a random point strictly before its end. *)

val duplicate_slice : rng -> string -> string
(** Repeat a random slice in place — the classic retransmit stutter. *)

val mangle : rng -> string -> string
(** One of {!flip_bytes}, {!truncate_string}, {!duplicate_slice}, a
    random-junk insertion, or a slice deletion, chosen by the stream:
    the full damage model a decoder must stay total under. *)
