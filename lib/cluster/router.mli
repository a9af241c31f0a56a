(** The identity-aware cluster router: the {!Idbox_chirp.Client} API
    over a sharded, replicated set of Chirp servers.

    The router discovers servers from the catalog, authenticates to
    {e each} shard with the caller's own kept credentials, and routes
    every call by its path's shard key over a consistent-hash ring.
    The paper's consistency-of-identity invariant is enforced
    cluster-wide: if two shards negotiate {e different} principals for
    the same credentials, the router refuses to proceed ([EPERM],
    counted as [cluster.identity.mismatch]) — one global identity, or
    no service.  Reads sweep a shard's replicas in ring order, failing
    over to the next on a transport fault ([cluster.failover]); writes
    go to the primary, whose server-side hook fans them out (see
    {!Replica}).  Every exchange feeds the node's circuit breaker, and
    a read skips a node whose breaker is open ([cluster.breaker.skip])
    — unless every owner is skipped, when one request is forced at the
    primary anyway ([cluster.breaker.forced]).  When every owner is out
    of reach, the router re-reads the catalog, rebalances the affected
    ranges, and retries once on the new ring ([cluster.route.retry]).

    A read that succeeds only after failing over also sends the key's
    primary an untrusted repair {e hint} ([cluster.read_repair.hint])
    and does not wait for its answer: some copy of that key is
    unreachable or behind, so the primary schedules a digest check of
    its replicas (see {!Repair}).  The hint carries no data — the
    primary verifies divergence itself — so the router never becomes a
    write path.

    Every routing decision is counted ([cluster.route],
    [cluster.route.<node>]) and spanned in the trace ring when one is
    attached.  The consistent-hash lookup itself is served from a route
    cache keyed by shard key and validated against the membership
    generation — flushed whole on any epoch change or rebalance
    ([cluster.route.cache.hit] / [.miss] / [.flush]); metrics and spans
    fire identically either way. *)

type t

type 'a r := ('a, Idbox_vfs.Errno.t) result

val connect :
  ?src:string ->
  ?policy:Idbox_chirp.Client.retry_policy ->
  ?replicas:int ->
  ?vnodes:int ->
  ?trace:Idbox_kernel.Trace.ring ->
  Idbox_net.Network.t ->
  catalog:string ->
  credentials:Idbox_auth.Credential.t list ->
  (t, string) result
(** Discover the membership from [catalog], authenticate to every
    member, and verify the negotiated principal is identical
    everywhere.  Fails when the catalog is unreachable, no servers are
    advertised, or the identity invariant does not hold.  [replicas]
    (default 2) and [vnodes] (default 64) must match the values the
    nodes were attached with. *)

val principal : t -> string
(** The single cluster-wide principal, verified across all shards. *)

val nodes : t -> string list
(** Current ring members, sorted. *)

val node_for : t -> string -> string option
(** The node name a path currently routes to (its primary). *)

val sync : t -> unit
(** Re-read the catalog; on membership change, rebuild the ring and
    migrate only the affected key ranges (see {!Replica.rebalance}).
    Cheap when nothing changed.  Callers drive this at their own
    cadence — the simulated world has no background threads. *)

val routes : t -> int
(** Routing decisions made so far. *)

val failovers : t -> int
(** Read failovers so far: owners a read moved past, whether they
    failed in transport or were skipped by an open breaker. *)

(** {1 The Chirp client API, routed} *)

val mkdir : t -> string -> unit r
val rmdir : t -> string -> unit r
val unlink : t -> string -> unit r
val put : t -> path:string -> data:string -> unit r
val get : t -> string -> string r
val stat : t -> string -> Idbox_chirp.Protocol.wire_stat r
val readdir : t -> string -> string list r
val getacl : t -> string -> string r
val setacl : t -> path:string -> entry:string -> unit r

val read_repair_hint : t -> string -> unit
(** Nudge [key]'s primary to digest-check its replicas (the router
    sends this itself after a read that needed failover), without
    waiting for the answer.  Bounded and deduped: at most one hint per
    key per two retry-timeout windows and at most 16 distinct keys
    outstanding — a flapping link cannot grow the replica's pending set
    without limit.  Suppressed hints count
    [cluster.repair.hint_dropped]; sent ones
    [cluster.read_repair.hint].  Exposed for tests. *)

val rename : t -> src:string -> dst:string -> unit r
(** Within one shard only: a cross-shard rename answers [EXDEV], as a
    cross-device rename would on Unix. *)

val exec : t -> ?cwd:string -> path:string -> args:string list -> unit -> int r
(** Routed by the program's path; [cwd] (default the program's
    directory) must shard with it, else [EXDEV]. *)

val exec_delegated :
  t ->
  chain:Idbox_auth.Delegation.chain ->
  ?cwd:string ->
  path:string ->
  args:string list ->
  unit ->
  int r
(** {!exec} under a delegation chain: routed like [exec], validated by
    the primary, and replicated with the chain inside the operation so
    every owner revalidates against its own revocation view.  This is
    how node B submits delegated work to node C — the router picks the
    shard, the chain carries the authority.
    Counter: [cluster.delegated_exec]. *)

val revoke : t -> string -> int r
(** Bump the named delegator's revocation epoch cluster-wide.  Routed
    to the root-key primary and fanned to every member by the
    server-side replication hook (root-key state, like the export
    root's ACL); members cut off by a partition converge later via
    {!Repair.gossip_epochs}.  Returns the primary's new epoch. *)

val delegation_epoch : t -> string -> int r
(** The root-key primary's current revocation epoch for the named
    delegator. *)

val checksum : t -> string -> string r
val whoami : t -> string r
