(** A ready-made N-node cluster world for tests, benchmarks and the
    CLI demo: one simulated clock/network/kernel, a catalog, a shared
    CA, and any number of Chirp servers on distinct hosts, each
    heartbeating its catalog lease and attached to the replication
    fabric ({!Replica.attach}).

    The world owns no threads: call {!tick} once per workload step to
    drive heartbeats and lazy membership refreshes, and {!settle} after
    assembling (or changing) the member set so every node's ring sees
    the final membership before traffic starts. *)

type t

val create :
  ?clock:Idbox_kernel.Clock.t ->
  ?net:Idbox_net.Network.t ->
  ?ca:Idbox_auth.Ca.t ->
  ?catalog_addr:string ->
  ?staleness_ns:int64 ->
  ?heartbeat_interval_ns:int64 ->
  ?repair_interval_ns:int64 ->
  ?root_acl:Idbox_acl.Acl.t ->
  ?trace:Idbox_kernel.Trace.ring ->
  unit ->
  t
(** A fresh world with a catalog at [catalog_addr] (default
    [catalog.grid.edu:9097]) and no members yet.  The default
    [root_acl] gives [globus:/O=Grid/*] the reserve right plus
    read/list, and read/list to [hostname:*.grid.edu].  [net] (and, if
    given, [clock] — otherwise the net's own clock) lets several worlds
    share one simulated fabric: the geo tier creates two regions on a
    common network, each with its own [catalog_addr], so fault windows
    can cut the WAN between them.  [ca] shares one trust root across
    such worlds, so a credential issued in one region authenticates in
    the other (geo proxying and forwarded writes). *)

val net : t -> Idbox_net.Network.t
val kernel : t -> Idbox_kernel.Kernel.t
val clock : t -> Idbox_kernel.Clock.t
val ca : t -> Idbox_auth.Ca.t
val catalog_addr : t -> string

val catalog : t -> Idbox_chirp.Catalog.t
(** The world's catalog service (e.g. to inspect live entries). *)

val replicas : t -> int
(** {!Shard.replicas}: R, the size of every key's replica set. *)

val add_node :
  ?acceptor:Idbox_auth.Negotiate.acceptor ->
  t ->
  host:string ->
  (unit, string) result
(** Start a server on [host] (e.g. ["alpha.grid.edu"]; member name is
    the first label, public address [host:9094], export
    [/tmp/chirp_<name>]), register it with the catalog, and attach it to the
    replication fabric.  [acceptor] overrides the world's default
    (trust the world CA; accept [hostname:*.grid.edu]) — e.g. to build
    a shard that negotiates a {e different} principal and trip the
    router's identity check. *)

val remove_node : t -> string -> (unit, string) result
(** Scale a member out, cleanly: deregister its catalog lease (so the
    next refresh drops it from every view) and remove it from the
    member set.  Unlike {!crash}, its server keeps listening as a
    zombie so in-flight requests complete while routers converge; a
    later {!add_node} of the same host replaces it.  When the catalog
    is unreachable the departure degrades to a crash-like exit (the
    lease ages out). *)

val settle : t -> unit
(** Force every member's membership refresh — call once after the last
    {!add_node} (and after any deliberate membership change the test
    wants the nodes to see immediately). *)

val tick : t -> unit
(** One cooperative step: each beating member ticks its heartbeat, each
    member's replication node refreshes its view if due, and each live
    member's anti-entropy loop runs ({!Repair.tick} — pending checks
    every step, full sweeps on the [repair_interval_ns] cadence and
    one step after an observed membership change). *)

val members : t -> string list
(** Member names, sorted. *)

val member_hosts : t -> string list
(** Member host names, in member order — with the catalog host, the
    full set a partition plan needs to isolate this world's region. *)

val server : t -> string -> Idbox_chirp.Server.t
(** A member's server, by name.  Raises [Not_found] for unknown names. *)

val replica : t -> string -> Replica.node
val repair : t -> string -> Repair.t

val repair_sweep : t -> unit
(** Force a full anti-entropy sweep on every live member now — how
    tests make convergence synchronous instead of waiting out the
    cadence. *)

val crash : t -> string -> unit
(** Crash a member's server {e and} stop its heartbeat: the lease ages
    out and the catalog ejects it.  Its replication endpoint goes down
    with its Chirp endpoint, so a crashed member takes no replication
    traffic: forwards and repairs to it fail and leave the key pending
    repair. *)

val restart : t -> string -> unit
(** Restart after {!crash}, both endpoints; the next {!tick}
    re-registers the lease. *)

val issue : t -> string -> Idbox_auth.Credential.t
(** A GSI credential for [/O=Grid/CN=<name>], signed by the world CA. *)

val principal_of : string -> string
(** The principal string a CN negotiates to: ["globus:/O=Grid/CN=<cn>"]
    — the form delegation tokens name principals in. *)

val delegate :
  ?ttl_ns:int64 ->
  ?hops:int ->
  ?epoch:int ->
  t ->
  delegator:string ->
  delegatee:string ->
  rights:Idbox_acl.Rights.t ->
  prefix:string ->
  unit ->
  Idbox_auth.Delegation.token
(** Mint one delegation hop, CN to CN, attested by the world CA and
    stamped at the world clock's current time ([ttl_ns] default 1 h,
    [hops] default 4).  [epoch] must be the delegator's current
    revocation epoch if they have ever revoked ({!Router.revoke});
    defaults to 0.  Counter: [auth.delegation.mint]. *)

val connect :
  ?src:string ->
  ?policy:Idbox_chirp.Client.retry_policy ->
  t ->
  credentials:Idbox_auth.Credential.t list ->
  (Router.t, string) result
(** {!Router.connect} against this world's catalog, with the world's
    trace ring. *)
