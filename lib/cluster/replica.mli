(** The replication layer: write-through-primary fan-out and rebalance
    migration over a server-to-server channel.

    Every cluster node gets a {e replication endpoint} (its public
    address suffixed ["#repl"] — same host, so partitions cut both
    channels together).  The channel is cluster infrastructure: peers
    are assumed mutually authenticated (in this simulation, by
    construction), and operations carry the {e original caller's}
    principal so replicas re-run the same ACL checks the primary ran —
    identity consistency is preserved through replication, not bypassed
    by it.

    Writes go through the primary: {!attach} installs a
    {!Idbox_chirp.Server.set_mutation_hook} that forwards each fresh,
    successful mutation to the other owners of its shard key (per the
    node's own catalog-derived ring).  Mutations under the root key
    (["/"], e.g. a root ACL change) fan out to {e every} member, since
    every node anchors its ACL inheritance at its own export root.

    The channel speaks five verbs: [apply] (forwarded mutation),
    [snapshot] / [install] (rebalance migration), and the anti-entropy
    pair [digest] (report the node's {e self-computed} subtree digest
    for a prefix) and [repair] (install the primary's authoritative
    subtree {e exactly}, deletions included) — plus the untrusted
    [hint], which merely schedules a digest check.

    Rebalance moves only affected ranges: {!rebalance} compares the
    replica sets of each known prefix under the old and new rings and
    ships subtree snapshots only to nodes that {e gained} a prefix,
    pulling from any reachable old owner (hedged via
    {!Idbox_net.Network.call_any}). *)

type node
(** A server attached to the cluster's replication fabric. *)

val repl_addr : string -> string
(** The replication endpoint address for a public server address. *)

val encode_entry : Idbox_chirp.Server.snapshot_entry -> string
(** Wire form of one snapshot entry (shared by rebalance and repair). *)

val decode_entries :
  string list -> (Idbox_chirp.Server.snapshot_entry list, string) result
(** Decode a shipped snapshot; fails on the first malformed entry. *)

val shard_key : string -> string
(** The namespace prefix a path shards on: its first component, or
    ["/"] for the root itself. *)

val attach :
  net:Idbox_net.Network.t ->
  server:Idbox_chirp.Server.t ->
  name:string ->
  catalog:string ->
  ?replicas:int ->
  ?vnodes:int ->
  ?trace:Idbox_kernel.Trace.ring ->
  unit ->
  node
(** Join [server] to the replication fabric as cluster member [name]:
    listen on the replication endpoint and start forwarding mutations.
    [replicas] (default 2) is the replica-set size R; [vnodes] (default
    64) must match the routers'.  The node re-reads the catalog at most
    every 5 s to track membership; forwards and the node's own catalog
    polls use the short {!fwd_timeout_ns} so a partitioned peer or
    catalog costs bounded time per mutation.  The pending-repair set
    holds at most 64 entries. *)

val detach : node -> unit
(** Stop forwarding and close the replication endpoint. *)

val name : node -> string
val ring : node -> Ring.t
val server : node -> Idbox_chirp.Server.t
val membership : node -> Membership.t
val src : node -> string
val net : node -> Idbox_net.Network.t
val replicas : node -> int
val fwd_timeout_ns : int64
(** 50 ms: the intra-cluster LAN budget for forwards, catalog polls and
    anti-entropy exchanges. *)

(** {1 The pending-repair set}

    Shard keys known or suspected to be diverged somewhere, so
    anti-entropy can check them {e before} its sweep cadence comes
    around.  Fed by two sources: a failed forward records the failing
    member and errno; an untrusted ["hint"] (e.g. from a router whose
    read failed over) records the key alone.  Bounded at 64 entries —
    under a long partition every forward fails, and the cadence sweep
    covers every key regardless; overflow just loses priority, counted
    as [cluster.repair.pending.drop]. *)

val note_pending : node -> key:string -> peer:string -> errno:string -> unit
(** Record a suspect [(key, peer)] pair ([peer = ""] when unknown).
    Re-noting an already-pending pair updates it in place. *)

val note_pending_admitted :
  node -> key:string -> peer:string -> errno:string -> bool
(** Like {!note_pending}, but reports whether the entry was admitted
    (or refreshed) — [false] means the bounded set was full and the
    entry was shed, so the caller can count the drop under its own
    name (e.g. [cluster.repair.hint_dropped]). *)

val take_pending : node -> (string * string * string) list
(** Drain the set: [(key, peer, errno)] in sorted order, emptying it. *)

val pending_count : node -> int

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
  ?timeout_ns:int64 ->
  before:Ring.t ->
  after:Ring.t ->
  old_view:(string * string) list ->
  new_view:(string * string) list ->
  replicas:int ->
  prefixes:string list ->
  unit ->
  int
(** Migrate the affected key ranges for a membership change: for each
    prefix whose replica set changed between [before] and [after],
    snapshot the subtree from a reachable old owner and install it on
    each node that gained the prefix (counted as [cluster.migrate];
    unreachable-source ranges count [cluster.migrate.lost]).  Newly
    joined members additionally receive the current root ACL, so a
    node that missed a root ACL change while ejected re-admits with
    consistent policy.  Returns the number of migrations performed.
    Prefixes whose owners did not change are untouched — the
    consistent-hashing locality guarantee, asserted by the property
    suite. *)
