(** The simulated network fabric connecting Chirp clients, servers, and
    the catalog.

    An in-memory message-passing network with an explicit latency and
    bandwidth model: every request/response pair charges two one-way
    trips to the shared world clock.  Endpoints are named by
    ["host:port"] strings; handlers are host-level closures (a server's
    dispatch loop).  Wire payloads are opaque strings — protocol
    libraries do their own framing, so serialization bugs are real
    bugs here, not type errors papered over.

    The fabric is fault-injectable: install a {!Fault.plan} and calls
    start losing messages, resetting mid-exchange, corrupting or
    truncating responses, and honouring scheduled partitions — all
    deterministically from the plan's seed and the simulated clock.
    Endpoints can also be crashed and restarted explicitly.  Every
    injected fault is counted in the attached metrics registry (both
    globally, e.g. [net.drop], and per endpoint, e.g.
    [net.drop.host:port]) and recorded as a span in the attached trace
    ring. *)

type t

type endpoint_stats = {
  mutable calls : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable busy_ns : int64;
      (** Simulated time this endpoint spent servicing calls (both
          transfer legs plus handler time).  The cluster capacity
          model: aggregate throughput is bounded by the busiest
          endpoint, so N-way sharding divides the bottleneck. *)
}

val create :
  clock:Idbox_kernel.Clock.t ->
  ?latency_us:float ->
  ?bandwidth_mbps:float ->
  ?metrics:Idbox_kernel.Metrics.t ->
  ?trace:Idbox_kernel.Trace.ring ->
  unit ->
  t
(** Default latency 100 µs one-way, bandwidth 100 Mbit/s — a 2005-era
    campus LAN.  A caller waits 1 s for a lost message before seeing
    [ETIMEDOUT] unless it names its own [timeout_ns] per call.  [metrics] defaults to a private registry (pass the
    kernel's to fold network counters into one export); [trace], when
    given, receives one span per injected fault. *)

val clock : t -> Idbox_kernel.Clock.t

val metrics : t -> Idbox_kernel.Metrics.t
(** The registry fault and error counters land in. *)

val listen : t -> addr:string -> (string -> string) -> unit
(** Register a request handler at an address (replacing any previous
    listener).  The endpoint comes up listening.  A synchronous
    endpoint is an asynchronous one ({!listen_async}) that answers with
    the handler's result before its delivery event returns. *)

val unlisten : t -> addr:string -> unit

val addresses : t -> string list
(** Listening addresses, sorted (crashed endpoints included). *)

val call :
  t ->
  ?src:string ->
  ?timeout_ns:int64 ->
  addr:string ->
  string ->
  (string, Idbox_vfs.Errno.t) result
(** Synchronous RPC: [await (submit ...)], an asynchronous exchange that
    completes before returning.  There is one exchange path; the
    request leg, the handler and the response leg advance the shared
    clock as events, and whatever else falls due meanwhile runs too.

    [src] (default ["client"]) names the calling host for partition
    matching.  Failure modes: [ECONNREFUSED] when nobody listens or the
    endpoint is crashed; [ETIMEDOUT] when a message is dropped, the
    path is partitioned, or the answer is not back within the timeout
    (the caller's clock reaches the deadline); [ECONNRESET] when the
    exchange resets mid-flight — including when the handler itself
    raises: the exception is contained here, charged, counted
    ([net.reset]), and surfaced as this wire-level error, never
    propagated into the caller.

    Since calls became exchanges, four details differ from the
    blocking call they replaced:
    - a response-drop timeout runs from submission, not from when the
      handler finished; likewise a handler that runs past the timeout
      now yields [ETIMEDOUT], and its answer counts as
      [net.late_reply];
    - a reset leg no longer counts as a message in {!total_messages};
    - injected jitter counts toward the endpoint's busy time, and so
      does the transfer leg of a response that is then dropped. *)

(** {1 Asynchronous exchanges}

    The one exchange path of the fabric.  [submit] starts an exchange
    and returns immediately with a completion {!token}; the request
    leg's faults are decided (deterministically, in submission order)
    at submit time but the clock does not move.  Deliveries, responses
    and timeouts become events on a queue ordered by (time, sequence);
    executing an event moves the shared clock forward to the event's
    time.  Every submitted exchange arms exactly one timeout; a token
    is completed exactly once, by whichever of response/timeout fires
    first — a response that loses the race is discarded and counted as
    [net.late_reply] (globally and per endpoint), never delivered.

    [listen_async] registers an endpoint whose handler receives a
    {!conn} it may answer later with {!respond} — the hook a server
    uses to park requests.  Every endpoint is one of these: {!listen}
    answers within the delivery, and {!call} is {!await} of
    {!submit}.

    Endpoint busy time runs from the request leg through the response
    leg.  An answer given during the delivery event is charged when the
    event ends, so work a handler does after replying (a checkpoint)
    still counts. *)

type token
(** The client half of an in-flight exchange. *)

type conn
(** The server half: handed to an async handler, consumed by
    {!respond}. *)

val listen_async : t -> addr:string -> (conn -> string -> unit) -> unit
(** Register an event-driven handler at an address (replacing any
    previous listener).  The handler is invoked at request-delivery
    time and may call {!respond} immediately or hold the [conn] and
    respond from a later event. *)

val submit :
  t -> ?src:string -> ?timeout_ns:int64 -> addr:string -> string -> token
(** Start an exchange without blocking.  Unreachable endpoints
    complete the token immediately ([ECONNREFUSED]); partitions and
    request drops leave it to the armed timeout; otherwise delivery is
    scheduled one transfer time (plus any jitter) ahead. *)

val respond : t -> conn -> string -> unit
(** Answer a delivered request: response-leg faults are decided now,
    and the completion (or reset) is scheduled one transfer time
    ahead.  Responding to an exchange whose token already completed
    discards the response and counts [net.late_reply] — it consumes no
    fault randomness, so seeded runs stay deterministic. *)

val at : t -> int64 -> (unit -> unit) -> unit
(** Schedule a callback at an absolute simulated time — the hook a
    server uses to arm batch flushes and sweeps. *)

val poll : token -> (string, Idbox_vfs.Errno.t) result option
(** The exchange's result, or [None] while still in flight. *)

val completed_at : token -> int64 option
(** When the token completed (simulated clock), once it has. *)

val step : t -> bool
(** Execute the next live event: advance the clock to its time and run
    it.  Dead events (a timeout whose token already completed) are
    skipped without advancing the clock.  [false] when the queue is
    empty. *)

val pump : t -> unit
(** Run {!step} until the queue is empty. *)

val pending_events : t -> int
(** Queue length, dead events included (for tests and introspection).
    Dead events are swept once the queue doubles past the live count of
    the last sweep, so this tracks in-flight work, not history. *)

val await : t -> token -> (string, Idbox_vfs.Errno.t) result
(** Pump the event loop until this token completes.  If the queue
    drains while the exchange is still open (a server parked it and
    armed no wakeup), the wait fails with [ETIMEDOUT]. *)

val stats : t -> addr:string -> endpoint_stats option

val busy_ns : t -> addr:string -> int64
(** Accumulated service time at [addr] ([0L] for unknown endpoints). *)

val total_messages : t -> int
val total_bytes : t -> int

(** {1 Hedged calls} *)

val call_any :
  t ->
  ?src:string ->
  ?timeout_ns:int64 ->
  addrs:string list ->
  string ->
  (string * string, Idbox_vfs.Errno.t) result
(** [call_any t ~addrs payload] calls the addresses in order, standing
    in for one logical service (the replicas of a shard), until one
    answers; returns the answering address and its response.  A
    transport-level failure ([ETIMEDOUT]/[ECONNRESET]/[ECONNREFUSED]/
    [EHOSTUNREACH]) moves on to the next address, counted as
    [net.hedge]; the first answer ends the sweep, since an
    application-level error from a live address is a verdict, not a
    reason to shop around.  The last address's transport error is
    returned when none answers, [EHOSTUNREACH] when [addrs] is empty. *)

(** {1 Fault injection} *)

val set_fault_plan : t -> Fault.plan -> unit
(** Install (or replace) the fault plan; reseeds the fault stream from
    [plan.seed], so installing the same plan twice replays the same
    faults. *)

val clear_fault_plan : t -> unit
(** Back to a perfect network. *)

val crash : t -> addr:string -> unit
(** Take a listening endpoint down: calls see [ECONNREFUSED] until
    {!restart}.  The handler stays registered.  No-op for unknown
    addresses. *)

val restart : t -> addr:string -> unit
(** Bring a crashed endpoint back up.  No-op for unknown addresses. *)

val is_up : t -> addr:string -> bool
(** True when the address is registered and not crashed. *)
