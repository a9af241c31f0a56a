(** A per-peer circuit breaker: closed / open / half-open.

    Fed by the caller's own verdicts — {!failure} on a transport-level
    fault (timeout, reset, unreachable), {!success} on any answered
    exchange — and consulted with {!allow} before spending a timeout on
    a peer that has been failing.  [threshold] consecutive failures
    trip the breaker open; for [reset_ns] thereafter {!allow} refuses
    ({e short-circuits}) so the caller can skip the peer instead of
    waiting out another timeout.  Once the window elapses the breaker
    goes {e half-open} and grants one trial request, the probe: its
    success closes the breaker, its failure re-opens it with a fresh
    window, and every other request short-circuits until then.

    Deliberately not a retry policy: the breaker never sleeps, never
    retries, and holds no request state.  It is a memory of recent
    failure shared by all requests to one peer, so replica fan-out and
    failover sweeps can skip known-bad nodes and still probe them back
    to health.

    Every decision is counted under [<prefix>.<event>]:
    [open] (tripped), [half_open], [probe], [close], [short_circuit].
    Shed responses (EAGAIN) must NOT be fed to {!failure} — a live
    server shedding load is an answer, not an absence. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type t

val create :
  ?threshold:int ->
  ?reset_ns:int64 ->
  ?prefix:string ->
  ?on_transition:(string -> state -> unit) ->
  clock:Idbox_kernel.Clock.t ->
  metrics:Idbox_kernel.Metrics.t ->
  string ->
  t
(** [create ~clock ~metrics subject] — [subject] names the guarded
    peer (for transition callbacks and debugging).  [threshold]
    (default 3) consecutive failures trip open; [reset_ns] (default
    500 ms) is the open window; [prefix] (default ["breaker"])
    namespaces the counters.  [on_transition] fires on every state
    change with the subject and the new state — how callers span
    transitions into their trace ring. *)

val state : t -> state
val subject : t -> string

val allow : t -> bool
(** May a request go to this peer now?  [false] means short-circuit:
    skip the peer (the caller decides what that means — next replica,
    fast error, pending-repair note).  Calling [allow] on an open
    breaker whose reset window has elapsed moves it half-open and
    spends the first probe. *)

val success : t -> unit
(** The peer answered (any application verdict counts — even an error
    verdict proves liveness).  Closes a half-open breaker. *)

val failure : ?errno:Idbox_vfs.Errno.t -> t -> unit
(** The peer failed at transport level.  [errno] is remembered and
    reported by {!last_errno} so short-circuited callers can surface
    the real reason the peer was abandoned. *)

val last_errno : t -> Idbox_vfs.Errno.t
(** The errno of the most recent recorded failure
    ([EHOSTUNREACH] before any). *)

val trips : t -> int
(** Times this breaker has tripped open (including re-opens). *)
