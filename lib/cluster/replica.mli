(** The replication layer: write-through-primary fan-out and rebalance
    migration over a server-to-server channel.

    Every cluster node gets a {e replication endpoint} (its public
    address suffixed ["#repl"] — same host, so partitions cut both
    channels together, and {!World.crash} takes both down).  The channel
    is cluster infrastructure: peers are assumed mutually authenticated
    (in this simulation, by construction), and operations carry the
    {e original caller's} principal so replicas re-run the same ACL
    checks the primary ran — identity consistency is preserved through
    replication, not bypassed by it.

    Writes go through the primary: {!attach} installs a
    {!Idbox_chirp.Server.set_mutation_hook} that forwards each fresh,
    successful mutation to the other owners of its shard key
    ({!Shard.owners}, per the node's own catalog-derived ring; every
    member for the root key).

    The channel speaks [apply] (a forwarded mutation), the untrusted
    [hint] (schedule a digest check), and the anti-entropy verbs
    {!Shard.answer} handles for this member alone: [digest], [snapshot],
    [install], [repair], [epochs] and [roots].

    Rebalance moves only affected ranges: {!rebalance} compares the
    owners of each known key under the old and new rings
    ({!Shard.moves}) and ships snapshots only to nodes that {e gained} a
    key, pulling from any reachable old owner (hedged via
    {!Idbox_net.Network.call_any}). *)

type node
(** A server attached to the cluster's replication fabric. *)

val repl_addr : string -> string
(** The replication endpoint address for a public server address. *)

val shard_key : string -> string
(** {!Shard.key}, under the name the benchmark harness calls. *)

val attach :
  net:Idbox_net.Network.t ->
  server:Idbox_chirp.Server.t ->
  name:string ->
  catalog:string ->
  ?trace:Idbox_kernel.Trace.ring ->
  unit ->
  node
(** Join [server] to the replication fabric as cluster member [name]:
    listen on the replication endpoint and start forwarding mutations.
    The node re-reads the catalog at most every 5 s to track
    membership; forwards and the node's own catalog polls use the short
    {!peer_timeout_ns} so a partitioned peer or catalog costs bounded
    time per mutation.  The pending-repair set holds at most 64
    entries. *)

val name : node -> string
val ring : node -> Ring.t
val membership : node -> Membership.t
val src : node -> string
val net : node -> Idbox_net.Network.t

val holders : node -> Shard.holders
(** The member's own server, for every key. *)

val peer_timeout_ns : int64
(** 50 ms: how long one exchange between servers waits — a forward, a
    catalog poll, an anti-entropy or a geo exchange. *)

(** {1 The pending-repair set}

    Shard keys known or suspected to be diverged somewhere, so
    anti-entropy can check them {e before} its sweep cadence comes
    around.  Fed by two sources: a failed forward records the failing
    member; an untrusted ["hint"] (e.g. from a router whose
    read failed over) records the key alone.  Bounded at 64 entries —
    under a long partition every forward fails, and the cadence sweep
    covers every key regardless; overflow just loses priority, counted
    as [cluster.repair.pending.drop]. *)

val note_pending : node -> key:string -> peer:string -> unit
(** Record a suspect [(key, peer)] pair ([peer = ""] when unknown).
    Re-noting an already-pending pair is a no-op. *)

val take_pending : node -> (string * string) list
(** Drain the set: [(key, peer)] pairs in sorted order, emptying it. *)

val tick : node -> unit
(** Refresh the node's membership view if its refresh interval has
    elapsed (cheap no-op otherwise).  Worlds call this once per
    workload step, alongside the heartbeat tick. *)

val refresh_now : node -> unit
(** Force a membership refresh regardless of the interval — used when
    the cluster is assembled node by node and every ring must see the
    final membership before traffic starts. *)

(** {1 Rebalance migration} *)

val rebalance :
  Idbox_net.Network.t ->
  ?src:string ->
  before:Ring.t ->
  after:Ring.t ->
  old_view:(string * string) list ->
  new_view:(string * string) list ->
  prefixes:string list ->
  unit ->
  int
(** Migrate the affected key ranges for a membership change: for each
    of [prefixes], and for the root, whose owners gained a member
    between [before] and [after], snapshot the key from a reachable old
    owner and install it additively on each member that gained it
    (counted as [cluster.migrate]; unreachable-source ranges count
    [cluster.migrate.lost]).  The root's gained owners are the joined
    members, so a node that missed a root ACL change while ejected
    re-admits with consistent policy.  Exchanges wait the network's
    default timeout, since a snapshot can be large.  Returns the number
    of migrations performed.  Keys whose owners did not change are
    untouched — the consistent-hashing locality guarantee, asserted by
    the property suite. *)
