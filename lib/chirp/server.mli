(** The Chirp server: a personal file server for grid computing
    (paper §4).

    A server is deployed {e by an ordinary user} on a host: it exports a
    directory of that host's filesystem, authenticates clients by any
    negotiated method, and enforces per-directory ACLs against the
    negotiated principal — a fully virtual user space in which local
    accounts never appear.  The [exec] extension runs a staged program
    in an identity box labelled with the caller's principal, which is
    the paper's Figure 3 demonstration.

    The server object plugs into the simulated {!Idbox_net.Network} as a
    request handler; its own filesystem work runs as the deploying
    user's uid on the host kernel. *)

type t

val create :
  kernel:Idbox_kernel.Kernel.t ->
  net:Idbox_net.Network.t ->
  addr:string ->
  owner_uid:int ->
  export:string ->
  acceptor:Idbox_auth.Negotiate.acceptor ->
  ?root_acl:Idbox_acl.Acl.t ->
  ?max_sessions:int ->
  ?max_parked:int ->
  ?session_idle_ns:int64 ->
  ?wal:Wal.t ->
  ?checkpoint_every:int ->
  ?flush_interval_ns:int64 ->
  ?flush_batch_limit:int ->
  unit ->
  (t, Idbox_vfs.Errno.t) result
(** Create the export directory (if missing), install [root_acl] on it
    when given, take a checkpoint of the (near-empty) export so recovery
    always has an image, and start listening on [addr].

    The server is an asynchronous endpoint
    ({!Idbox_net.Network.listen_async}) with one admission path: reads,
    auth and every error path are answered at delivery, while fresh
    mutations {e park} — the WAL ["op"] record is appended at admission
    (arrival order is log order) and a batch flush group-commits: one
    sync covers every parked record, the batch executes FIFO, the
    ["done"] dedup records are appended and synced, and only then do
    responses leave (an exec's checkpoint follows the replies).
    [flush_interval_ns] is the only dispatch setting.  At its default
    [0] the flush runs before the delivery returns — a batch of one,
    answered within its own delivery event.  A window [> 0] arms the
    flush that long after the first parked operation, so one sync
    amortizes over the batch and thousands of sessions can be in flight
    at once.  Sync-before-ack, exactly-once dedup and in-order execution
    hold either way.  A parked operation carries its principal from
    admission, so a session expiring mid-batch does not lose the
    response — and cannot double-release its slot, because the session
    table is the only slot accounting there is.  Counted in
    [chirp.async.{parked,batch,batch_ops,coalesced}].

    Degradation knobs: at most [max_sessions] (default 64) live
    sessions — further [Auth] requests are shed with [EAGAIN] and a
    retry-after hint ([chirp.shed.session]); sessions idle longer than
    [session_idle_ns] (default 10 min) are expired (covering
    half-authenticated leftovers whose auth reply was lost); responses
    to request-ID-carrying operations are remembered for 60 s (the
    dedup window) so client retries are exactly-once.

    Admission control (it matters once a flush window lets work queue):
    the parked-mutation queue is bounded at [max_parked] (default 256).
    Past 3/4 of the bound the server enters {e brownout} and sheds every
    fresh mutation with
    [EAGAIN] plus a [retry_after_ns] hint ([chirp.shed.mutation],
    [chirp.brownout.enter]); reads, dedup replays and parked retries are
    still served — reads are admitted before mutations.  Brownout exits
    once the queue drains below 1/4 ([chirp.brownout.exit]), so
    admission does not flap at the threshold.  [flush_batch_limit]
    (default unlimited) caps how many parked operations one batch tick
    executes — the server's engineered drain rate; a deeper backlog
    stays parked for later ticks, so sustained over-admission shows up
    as queueing delay rather than being serviced for free.

    Durability knobs: [wal] is the stable-storage device holding the
    write-ahead log and checkpoint image (default a calm device — pass
    one built with a {!Idbox_net.Fault.storage_profile} to inject crash
    damage); a checkpoint is taken every [checkpoint_every] (default
    128) logged records, and immediately after any [Exec] so program
    runs are never replayed.  A checkpoint never cuts into a running
    batch: one that falls due while a commit runs (a hook may pump the
    event loop) waits for the outermost commit to end, and so does a
    flush, so execution order stays log order.  The image holds executed
    mutations only; the ["op"] records of mutations still parked are
    logged again after it, in queue order, and do not count toward the
    next checkpoint. *)

val addr : t -> string
val export : t -> string
val owner_uid : t -> int

val revocations : t -> Idbox_auth.Delegation.Revocations.t
(** The per-delegator revocation-epoch store.  Grown by [Revoke]
    operations and by {!merge_epochs}; persisted inside checkpoints and
    rebuilt on {!restart} (checkpoint image plus replayed [Revoke]
    records). *)

val audit : t -> Idbox.Audit.t
(** The server's forensic trail.  Delegated operations record one event
    per chain hop ([op = "delegate"], the delegator handing authority
    toward the delegatee) plus one for the inner operation's verdict
    ([op = "delegated.<name>"]) — or a single denial when the chain is
    refused. *)

val sessions : t -> (string * string) list
(** [(principal, method)] for every authenticated session. *)

val session_count : t -> int

val exec_count : t -> int
(** Remote executions served (for experiment accounting). *)

val dedup_size : t -> int
(** Entries currently held in the dedup window. *)

val dedup_entries : t -> (string * int64) list
(** The dedup journal as (request id, admission time) pairs, sorted. *)

val parked_ops : t -> int
(** Mutations parked and awaiting the next batch flush (always [0]
    between deliveries when [flush_interval_ns] is [0]). *)

val brownout : t -> bool
(** Whether the server is currently in brownout (shedding mutations). *)

val shutdown : t -> unit
(** Stop listening. *)

val crash : t -> unit
(** Simulate a crash: the endpoint goes down ([ECONNREFUSED] to
    callers) until {!restart}, and the WAL device takes seeded crash
    damage per its storage profile.  Volatile state — sessions, the
    in-memory dedup table, identity boxes, every un-logged file — is
    gone; only the checkpoint image and the synced log prefix survive. *)

val restart : t -> unit
(** Come back up after {!crash} by {e recovering from stable storage}:
    the export is wiped, the latest checkpoint image is reinstalled, and
    the surviving WAL records are replayed in order (a torn or corrupt
    tail is discarded by checksum; it was never acknowledged).  The
    session table is lost (old tokens answer [ESTALE], forcing clients
    to re-authenticate), but the dedup journal is rebuilt from logged
    ["done"] records — a retry of an operation acknowledged just before
    the crash still replays instead of re-running.  Replay charges
    calibrated time ([wal_replay_ns] per record plus byte-copy cost), so
    recovery MTTR is measurable against log length.  A record or
    checkpoint entry that passed its checksum but does not decode is
    skipped.  Counted in
    [chirp.recovery.{replayed,torn,checkpoint_loads,undecodable}]. *)

val wal_records : t -> int
(** Records currently in the WAL (since the last checkpoint). *)

val wal_bytes : t -> int
(** Byte length of the current WAL. *)

val checkpoint_now : t -> (unit, Idbox_vfs.Errno.t) result
(** Force a checkpoint (snapshot the export, truncate the log, log the
    parked mutations again).  Called while a commit runs, it is taken
    when the outermost commit ends. *)

val handle : t -> string -> string
(** Direct dispatch: the same admission as a network delivery, with the
    response captured and returned.  A request that parks behind a
    flush window is flushed at once, together with whatever else is
    parked, so the answer is ready on return — unless it is called from
    inside this server's own commit (a hook pumping the event loop),
    where a parked request cannot run and it raises
    [Invalid_argument].  For tests and for benchmarks that wrap the
    listener. *)

(** {1 Replication hooks}

    The attachment points for the cluster layer ({!Idbox_cluster}).
    The server knows nothing of rings or membership; it reports fresh
    mutations and can apply or ship state on a peer's behalf. *)

val set_mutation_hook :
  t -> (identity:Idbox_identity.Principal.t -> Protocol.operation -> unit) -> unit
(** Install the hook called after every {e fresh, successful}
    non-idempotent operation (dedup replays never re-fire it, so a
    retried write still replicates exactly once).  Hook exceptions are
    contained and counted ([chirp.repl.hook_crash]); they cannot change
    the client's answer. *)

val set_geo_hook :
  t -> (identity:Idbox_identity.Principal.t -> Protocol.operation -> unit) -> unit
(** Install the geo-replication hook: fires on exactly the same fresh,
    successful non-idempotent operations as the mutation hook (after
    it).  The geo layer installs it only on the current primary
    region's members, so a shipped mutation applied in a secondary fans
    out intra-region without echoing back over the WAN.  Exceptions are
    contained and counted ([chirp.geo.hook_crash]). *)

val clear_geo_hook : t -> unit

val merge_epochs : t -> (string * int) list -> bool
(** Max-merge a peer's (delegator, revocation epoch) entries into the
    local store; [true] iff anything grew ([chirp.revocation.merge]).
    The anti-entropy side of revocation: [Revoke] fan-out covers the
    connected case, gossip heals partitions.  Merges are monotone, so
    delivery order and duplication are harmless. *)

val epoch_entries : t -> (string * int) list
(** The local (delegator, epoch) entries, sorted — the payload of a
    gossip round. *)

(** Where a mutation from another server comes from. *)
type remote =
  | Peer  (** Forwarded by a replica peer. *)
  | Shipped of string
      (** Shipped from another region's log; the geo epoch and LSN key
          the dedup journal. *)

type applied =
  | Applied of Protocol.response  (** Executed now. *)
  | Replayed of string  (** A dedup hit: the recorded response. *)

val apply :
  t -> remote -> identity:Idbox_identity.Principal.t -> Protocol.operation -> applied
(** Apply a mutation from another server under the principal that
    performed it first: the client-serving path, so the same ACL checks
    reach the same verdicts.  Every logged mutation — a client batch, a
    peer forward, a geo shipment, a replay in {!restart} — executes
    through one step; its origin decides only whether the hooks fire,
    whether the dedup journal keys it, and, for a replay, that nothing
    is logged again (DESIGN §9 tabulates the four).  Shared: the ["op"]
    record synced before execution, crash containment
    ([chirp.handler.crash]), the ["done"] record synced before the
    answer, and the checkpoint rule.

    [Peer]: no hooks, no journal ([chirp.repl.apply]).  [Shipped]:
    idempotent by its key — a key the journal still holds answers
    [Replayed] and executes nothing ([chirp.geo.dedup_hit]), so a
    segment re-delivered after a link reset is a byte-identical no-op;
    a fresh one fires the local hooks, since it is new to this region
    ([chirp.geo.apply]). *)

type snapshot_entry =
  | Snap_dir of { path : string; acl : string }
      (** A directory (wire path) and its ACL text ([""] when none). *)
  | Snap_file of { path : string; data : string }

val snapshot_subtree :
  ?recurse:bool -> t -> string -> (snapshot_entry list, Idbox_vfs.Errno.t) result
(** The subtree under a wire path as the owner sees it — directories
    first (parents before children), ACLs included.  [Ok []] when the
    prefix does not exist here.  With [recurse:false] (default [true]),
    just the named entry — e.g. the root directory's ACL alone. *)

val install_snapshot :
  t -> snapshot_entry list -> (unit, Idbox_vfs.Errno.t) result
(** Install a shipped subtree as the owner (rebalance migration): ACL
    enforcement already happened where the data was first written.
    Made durable by an immediate checkpoint (the WAL does not describe
    bulk installs). *)

val install_subtree_exact :
  t -> prefix:string -> snapshot_entry list -> (unit, Idbox_vfs.Errno.t) result
(** Make the subtree under the wire path [prefix] exactly equal to
    [entries] — install everything shipped {e and delete everything
    else} (anti-entropy repair).  An empty [entries] deletes the
    subtree.  Checkpoints afterwards, like {!install_snapshot}. *)

(** {1 Anti-entropy digests}

    Merkle-style per-directory digests over ACL text, child names and
    kinds, and file-content hashes.  Two replicas hold the same subtree
    content if and only if their subtree digests match; node-local
    bookkeeping (inode numbers, generation counters, timestamps) is
    deliberately excluded.  Per-directory digests are memoized under the
    directory's [(ino, generation)] token, so an unchanged directory
    revalidates at [gen_check_ns] instead of re-hashing
    ([chirp.digest.hit] / [chirp.digest.miss]). *)

val subtree_digest : t -> string -> (string, Idbox_vfs.Errno.t) result
(** Digest of the subtree under a wire path.  [Error ENOENT] when the
    prefix does not exist here. *)

val dir_digests : t -> string -> ((string * string) list, Idbox_vfs.Errno.t) result
(** [(wire path, subtree digest)] for every directory under (and
    including) the given wire prefix, sorted by path — the
    byte-comparable summary the convergence tests assert on. *)

val shard_roots : t -> (string list, Idbox_vfs.Errno.t) result
(** The top-level entry names in the export (shard keys present on this
    server), sorted.  The anti-entropy sweep iterates these. *)
