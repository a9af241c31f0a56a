(** Anti-entropy repair within a region: background digest exchange and
    divergence repair between the owners of each shard key.

    Forwarding keeps replicas converged only while every forward lands;
    a partition, a crash mid-replication, or a shed request leaves
    replicas silently diverged until the next overwrite.  The
    {e primary} of each key (the first member clockwise) compares its
    {!Shard.digest} with each other owner's over the ["#repl"] channel
    and, where they differ, pushes its {!Shard.snapshot}, which the
    owner installs by {!Shard.install}'s rule: exactly below the root,
    extras deleted, so digests converge rather than merely grow.  A
    clean check is cheap: each side memoizes per-directory digests
    under generation tokens, so it costs a revalidation, not a re-hash.

    Three triggers feed the loop, checked on every {!tick}:

    - the node's bounded pending set ({!Replica.note_pending}) — keys a
      failed forward or an untrusted hint marked suspect, checked
      immediately rather than on cadence;
    - the sweep cadence ([interval_ns]) — every local shard key is
      checked, so divergence with no witness still heals;
    - a membership-generation change (a partition healed, a member
      joined) — a full sweep runs {e one tick later}, after the
      routers' rebalance has migrated fresh data onto re-admitted
      members, so a returning primary does not push its stale copy over
      writes acknowledged while it was out.

    Non-primaries never push: a node that finds itself holding a key it
    is not primary for hands the primary a hint naming itself
    ([cluster.repair.handoff]), and the primary's next check includes
    that copy.  The authority rule is the same one writes follow —
    write-through-primary — so repair cannot resurrect state the write
    path would have rejected.

    One asymmetric case: a primary that holds {e no} copy of a hinted
    key (it was created on the other side of a partition and never
    replicated) first {e adopts} a reachable peer's snapshot as its own
    ({!Shard.adopt}, [cluster.repair.adopt]) and then repairs normally
    — acknowledged minority-side creations survive the heal by arriving
    at the primary.  Without tombstones, the same rule can resurrect a
    shard root deleted while a stale copy survived elsewhere; the DESIGN
    failure-mode table records this as the accepted cost.

    Repair preserves identity consistency: shipped subtrees carry ACL
    text, verdicts are re-derived from installed ACLs on each node, and
    digests cover ACLs, so policy converges along with data.

    Counters: [cluster.repair.{sweep,check,clean,diverged,push,fail,
    handoff,hint,pending,pending.drop}]. *)

type t

val attach : ?interval_ns:int64 -> Replica.node -> t
(** Attach the anti-entropy loop to a cluster node.  [interval_ns]
    (default 30 s) is the full-sweep cadence; pending keys are
    processed on every tick regardless. *)

val tick : t -> unit
(** Advance the loop: drain and check the pending set, and run a full
    sweep when the cadence has elapsed or a membership change was
    observed on the previous tick.  Worlds call this once per workload
    step, after {!Replica.tick}. *)

val sweep : t -> unit
(** Force a full sweep now (tests and the CLI use this to make
    convergence synchronous): a {!gossip_epochs} round, then every local
    key ({!Shard.keys}), the root first. *)

val gossip_epochs : t -> unit
(** One {!Shard.exchange_epochs} with every other ring member: the path
    that makes a [Revoke] issued during a partition reach the minority
    side after the heal.  Every {!sweep} runs it, even with an empty
    local store, since the exchange is how a node that knows nothing
    {e pulls} the epochs it missed; exposed so chaos tests can heal
    revocation state without a full data sweep.  Counters:
    [cluster.revocation.gossip] per peer contacted, [cluster.repair.fail]
    on unreachable peers. *)
