(** The Chirp client: typed access to a remote server over the simulated
    network, plus the adapter that lets identity boxes mount a server
    under [/chirp/...] (paper §4: "files on a Chirp server appear as
    ordinary files in the path /chirp/server/path").

    The client survives an imperfect network.  Every call runs under a
    {!retry_policy}: a per-attempt timeout, bounded exponential backoff
    with deterministic jitter, and a per-session retry budget.
    Idempotent operations ([get], [stat], [readdir], [getacl],
    [checksum], [whoami]) are re-sent transparently; non-idempotent ones
    ([put], [mkdir], [rmdir], [unlink], [setacl], [rename], [exec])
    carry a client-generated request ID that the server deduplicates, so
    a retried [exec] still runs exactly once.  When the server forgets
    the session (restart or idle expiry, surfaced as [ESTALE]), the
    client re-authenticates with its original credentials and refuses to
    continue if the negotiated principal changed — reconnecting can
    never switch identities mid-session. *)

type t
(** An authenticated session. *)

type 'a r := ('a, Idbox_vfs.Errno.t) result

type retry_policy = {
  timeout_ns : int64;  (** Per-attempt wait before declaring a loss. *)
  max_attempts : int;  (** Total attempts per call, including the first. *)
  base_backoff_ns : int64;  (** First retry's backoff cap. *)
  max_backoff_ns : int64;  (** Ceiling for the doubling cap. *)
  retry_budget : int;
      (** Total retries the session may spend across all calls; once
          exhausted, calls fail on their first transport error
          (graceful degradation instead of unbounded re-sending). *)
  lease_ns : int64;
      (** How long a cached [stat]/[getacl] response may be served
          without a round trip (an NFS-style attribute lease).  The
          cache is flushed on every mutation attempted through this
          client and on re-authentication; [0L] (or negative) disables
          it.  Counters: [chirp.lease.hit] / [.miss] / [.invalidate]. *)
}

val default_policy : retry_policy
(** 1 s timeout, 4 attempts, 1 ms–100 ms backoff, budget 100,
    2 s attribute leases. *)

val connect :
  ?src:string ->
  ?policy:retry_policy ->
  Idbox_net.Network.t ->
  addr:string ->
  credentials:Idbox_auth.Credential.t list ->
  (t, string) result
(** Negotiate authentication (client preference order) and open a
    session.  [src] (default ["client"]) names the calling host for
    partition matching. *)

val principal : t -> string
(** The negotiated principal, as the server knows us.  Stable for the
    life of the session: re-authentication after a server restart
    asserts the same principal or fails. *)

val auth_method : t -> string

val addr : t -> string

val retries : t -> int
(** Retries spent so far (all calls). *)

val breaker : t -> Idbox_net.Breaker.t
(** This session's circuit breaker over its one server: tripped by
    consecutive transport failures (8, reset 800 ms), after which calls
    fail fast with the tripping errno instead of burning a timeout
    each; the retry backoff still runs, so the half-open probe is
    reached and a recovered server closes it.  Shed responses
    ([EAGAIN]) never feed it.  Counted under [chirp.breaker.*]. *)

val mkdir : t -> string -> unit r
val rmdir : t -> string -> unit r
val unlink : t -> string -> unit r
val put : t -> path:string -> data:string -> unit r
val get : t -> string -> string r
val stat : t -> string -> Protocol.wire_stat r
val readdir : t -> string -> string list r
val getacl : t -> string -> string r
val setacl : t -> path:string -> entry:string -> unit r
val rename : t -> src:string -> dst:string -> unit r

val exec : t -> ?cwd:string -> path:string -> args:string list -> unit -> int r
(** The paper's remote-execution extension: run a staged program inside
    an identity box labelled with this session's principal; returns the
    exit code.  [cwd] defaults to the program's directory.  Retried
    transparently on transport faults; the request ID guarantees the
    program still runs at most once. *)

val checksum : t -> string -> string r
(** Server-side MD5 (hex) of a remote file: verify a transfer without a
    second copy of the data on the wire. *)

val whoami : t -> string r

val exec_delegated :
  t ->
  chain:Idbox_auth.Delegation.chain ->
  ?cwd:string ->
  path:string ->
  args:string list ->
  unit ->
  int r
(** {!exec} under a delegation chain whose last delegatee is this
    session's principal: the server validates the chain and runs the
    program as the chain's {e root} delegator, attenuated to the
    chain's grant and scope.  Same retry/dedup guarantees as {!exec}. *)

val get_delegated : t -> chain:Idbox_auth.Delegation.chain -> string -> string r
(** {!get} under a delegation chain — delegated read access. *)

val revoke : t -> string -> int r
(** Revoke every chain through the named delegator (who must be this
    session's principal — revocation is self-service): bumps the
    delegator's revocation epoch on the server and returns the new
    epoch.  Tokens minted under lower epochs are dead everywhere the
    epoch reaches (replication fan-out now, gossip after partitions). *)

val delegation_epoch : t -> string -> int r
(** The server's current revocation epoch for the named delegator. *)

val batch : t -> Protocol.operation list -> Protocol.response list r
(** Run N operations in one round trip ({!Protocol.Batch}): one
    envelope, one checksum, one request ID — a retried mutation batch
    deduplicates as a unit.  Members execute in order server-side; each
    member's result (including per-member errors) comes back in request
    order.  [Ok []] for the empty list without touching the network;
    [EINVAL] on nested batches. *)

(** {1 Prepared exchanges}

    The raw halves of one exchange, for callers that drive the network
    themselves — benchmarks and tests that submit many prepared
    requests concurrently ({!Idbox_net.Network.submit}).  Idempotent
    operations belong here: they carry no request ID, so preparing is
    pure and sending the same bytes twice is harmless by construction. *)

val prepare : t -> Protocol.operation -> string
(** The wire payload of [op] under this session's token, with no
    request ID.  Pure: no network traffic, no client state change. *)

val interpret : string -> (Protocol.response, Idbox_vfs.Errno.t) result
(** Decode one response payload: a damaged frame becomes [EIO] (the
    retry layers treat it as a transport fault), a server [R_error]
    becomes its errno, anything else is the answer.  Performs no
    retries and no re-authentication — a caller seeing [ESTALE] falls
    back to {!val-call}-based paths, which do. *)

val to_remote : t -> Idbox.Remote.t
(** A {!Idbox.Remote} driver backed by this session, for mounting into
    an identity box. *)
