(** Geo-replicated worlds: asynchronous WAL shipping, bounded-staleness
    reads, and epoch-fenced failover between {!World}s.

    Each region is one {!World} — its own members, catalog and kernel —
    on a {e shared} simulated network, so a fault window can cut the
    WAN between regions while intra-region traffic keeps flowing
    (assemble the cut with {!wan_windows}).  The primary region's
    members report every fresh, successful mutation through
    {!Idbox_chirp.Server.set_geo_hook}; the geo layer sequences them
    into a region log (LSNs) and ships contiguous segments — the
    records' checksummed IDBX frames, concatenated
    ({!Idbox_chirp.Wal.frame_segment}) — to every secondary on a
    group-commit cadence ({!tick}).  A damaged segment is rejected
    whole and re-sent; an intact one is applied {e idempotently}: the
    LSN travels as the dedup request id
    ({!Idbox_chirp.Server.apply}), so a segment re-delivered
    after a link reset replays recorded responses without executing —
    a byte-identical no-op.  A record applies on its key's primary,
    whose mutation hook fans it out to the other owners, as it does a
    client's write; a crashed member takes no replication traffic.  A
    record whose key's primary is down stops the segment there,
    unacknowledged, and is shipped again once the primary restarts: the
    primary has seen every acknowledged write, and its repair would undo
    a copy that skipped it.

    {b Bounded-staleness reads.}  A {!reader} attaches to one region
    and reads locally while the region's staleness lease holds: its
    applied LSN caught the primary's tip within the reader's
    [bound_ns] (the lease is refreshed by segments and heartbeats).
    Out of bound, the client-chosen {!read_policy} either proxies the
    read to the primary region through a circuit breaker ({!Proxy}) or
    answers [ESTALE] ({!Stale}) — retry after {!retry_after}.  Writes
    always route to the believed primary.  During a region partition a
    secondary therefore keeps serving everything its lease can prove
    and fails the rest fast; it never serves reads it cannot bound.

    {b Failover.}  Promotion is explicit and epoch-fenced:
    {!promote} bumps the fencing epoch, and every cross-region message
    carries (sender, epoch).  Lower epochs are fenced ([fenced]
    replies); a primary hearing a higher epoch — or losing the
    deterministic name tiebreak on an equal one — demotes itself on
    the spot, so there is no split-brain.  A demoted or fenced region
    refuses further segments until the new primary has {e reconciled}
    it: revocation epochs are max-merged {e first} (a delegation
    revocation is never resurrected by failover), then a Merkle
    digest sweep pushes diverged subtrees, then the region adopts the
    new primary's tip.  Failback is just another {!promote} once the
    old primary has been reconciled.

    {b Anti-entropy.}  The reconcile is the region's own anti-entropy
    run across the WAN: one {!Shard.exchange_epochs}, then per key the
    {!Shard} digest, snapshot and install, over each region's live
    owners, primary first; a region whose key's primary is down answers
    for that key with an error, and the reconcile is retried.  The geo
    endpoint answers the anti-entropy verbs with {!Shard.answer} and
    adds only its epoch fence: [repair] and [install] carry (sender,
    epoch) after the verb and are fenced like segments.

    Counters: [cluster.geo.append], [.ship], [.segment.apply],
    [.segment.skip], [.segment.damaged], [.apply], [.apply.dup],
    [.apply.defer] (the key's primary down), [.apply.error], [.hb], [.behind],
    [.fence.reject], [.fence.adopt], [.promote], [.demote],
    [.reconcile], [.reconcile.fail], [.reconciled],
    [.read.{local,proxy,stale}], [.write.{local,forward}],
    [.breaker.*]. *)

type t
(** A linked set of regions on one simulated network. *)

type role = Primary | Secondary

type region
(** One region's geo-replication state. *)

val link :
  ?ship_interval_ns:int64 ->
  ?batch_max:int ->
  primary:string ->
  Idbox_net.Network.t ->
  (string * World.t) list ->
  t
(** Link the named worlds (at least two, each already assembled on the
    shared network) into one geo deployment with [primary] as the
    initial primary region.  [ship_interval_ns] (default 200 ms) is
    the group-commit shipping cadence; [batch_max] (default 64) caps
    records per segment, and each region's log keeps the newest
    16 × [batch_max] records ({!log_retain}): a peer acked further back
    than that is reconciled instead of re-shipped.  Each cross-region
    exchange waits {!Replica.peer_timeout_ns}.  Every peer starts
    marked for reconcile, so the first cadence converges regions
    that were not born identical (e.g. the primary had pre-link writes)
    before incremental shipping begins. *)

val region : t -> string -> region

val role : region -> role
val epoch : region -> int
(** The region's current fencing epoch. *)

val applied_lsn : region -> int
val tip : region -> int
(** The highest LSN this region has sequenced (primary side). *)

val needs_reconcile : region -> bool
(** Whether this region is refusing segments until reconciled. *)

val staleness : t -> region -> int64
(** How stale this region's applied state is: time since it last
    proved its applied LSN equal to the primary's tip.  [0] on the
    primary. *)

val log_retain : t -> int
(** How many records each region's log keeps: 16 × [batch_max]. *)

val log_length : region -> int
(** Records this region's log holds now, at most {!log_retain}. *)

val ship_interval_ns : t -> int64

val tick : t -> unit
(** Drive the shipping cadence: a primary whose interval has elapsed
    reconciles stale peers and ships pending segments (or heartbeats
    caught-up ones, refreshing their staleness leases). *)

val ship_now : t -> unit
(** Force an immediate shipping round regardless of the cadence —
    how tests make replication synchronous. *)

val promote : t -> string -> unit
(** Promote the named region: bump the fencing epoch, install the geo
    hooks on its members, and continue the log from its applied LSN.
    Peers (including a deposed primary across a partition) fence
    themselves on first contact and are reconciled before resuming.
    No-op when the region is already primary. *)

val region_hosts : t -> string -> string list
(** Every host a partition plan needs to isolate this region: its geo
    endpoint, its catalog, its conventional client host, and every
    member — the input to {!wan_windows}. *)

val wan_windows :
  t ->
  from_ns:int64 ->
  until_ns:int64 ->
  between:string * string ->
  Idbox_net.Fault.window list
(** The full cross-product of partition windows cutting region [a]
    from region [b] (named regions) for the given time span — apply
    with {!Idbox_net.Fault.plan} to sever the WAN while each region's
    intra-region traffic keeps flowing. *)

val rewind_ack : t -> primary:string -> peer:string -> to_lsn:int -> unit
(** Test helper simulating the shipper side of a link reset: forget
    the peer's acknowledgements past [to_lsn], so the next shipping
    round re-delivers records the peer already applied — which must be
    a byte-identical no-op (the idempotence property the suite pins
    down). *)

(** {1 Bounded-staleness readers} *)

type read_policy =
  | Proxy  (** Out-of-bound reads go to the primary region. *)
  | Stale  (** Out-of-bound reads answer [ESTALE]; retry after
               {!retry_after}. *)

type reader

val connect :
  t ->
  region:string ->
  credentials:Idbox_auth.Credential.t list ->
  ?src:string ->
  ?policy:read_policy ->
  ?bound_ns:int64 ->
  unit ->
  (reader, string) result
(** Attach a client to the named region.  [src] (default
    [client.<region>.grid.edu]) names the calling host for partition
    plans; [policy] (default {!Proxy}) picks the out-of-bound
    behaviour; [bound_ns] (default 1 s) is the staleness bound local
    reads must satisfy. *)

val retry_after : reader -> int64
(** The retry-after hint accompanying [ESTALE]: one shipping
    interval. *)

type 'a r := ('a, Idbox_vfs.Errno.t) result

val get : reader -> string -> string r
val stat : reader -> string -> Idbox_chirp.Protocol.wire_stat r
val readdir : reader -> string -> string list r
val getacl : reader -> string -> string r
val checksum : reader -> string -> string r
val whoami : reader -> string r
val put : reader -> path:string -> data:string -> unit r
val mkdir : reader -> string -> unit r
val setacl : reader -> path:string -> entry:string -> unit r
