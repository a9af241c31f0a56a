(** The shard rules, written once for both anti-entropy paths: the
    region's {!Repair} loop between members' ["#repl"] endpoints, and
    {!Geo}'s reconcile between regions.  Every copy of a key re-runs the
    same rules and converges on the same state.

    A path shards on its first component ({!key}); the export root is
    the key ["/"].  The rules:

    - {b Owners.}  A key's owners are the first {!replicas} distinct
      members clockwise from it on the ring, primary first.  Every
      member owns the root: each anchors ACL inheritance at its own
      export root.
    - {b Digest.}  A key's digest covers its whole subtree.  At the root
      it covers the ACL text alone, because every member holds its own
      set of top-level shards.
    - {b Snapshot and install.}  A key's snapshot is its subtree, and
      at the root the root directory alone.  A repair installs it
      exactly below the root (extras deleted, so digests converge) and
      additively at it.  {!adopt} installs additively anywhere: a
      migration onto a new owner, or a primary taking a copy it lacks.
    - {b Revocation epochs.}  Merged by pointwise max, so an exchange is
      idempotent and order-free, and both sides only grow.

    The functions over servers take a {!holders} lookup: the local
    servers that hold a key, the one that answers for it first.  Behind
    ["#repl"] that is the one member; behind the geo endpoint it is the
    region's live owners, primary first, and none while the primary is
    down.

    {!answer} is the one handler for the anti-entropy verbs of both
    endpoints.  Requests and replies, as {!Idbox_chirp.Wire} fields:

    - [digest; key] or [digest; key; depth] answers [ok; digest], or
      [ok; ""] when the key is absent;
    - [snapshot; key] or [snapshot; key; depth] answers [ok; entry...];
    - [repair; key; entry...] installs exactly below the root, additively
      at it, and answers [ok];
    - [install; entry...] installs additively on the holders of the
      entries' key and answers [ok];
    - [epochs; delegator; epoch; ...] max-merges the caller's epochs and
      answers [ok] with the holders' own
      ([cluster.revocation.merge] when anything grew);
    - [roots] answers [ok] with the shard keys the holders store.

    The [depth] field is redundant with the key ([acl] or [dir] at the
    root, [all] below it); ["#repl"] requests carry it.  Failures answer
    [error; errno], and anything else [error; EINVAL]. *)

val replicas : int
(** R = 2: the size of a key's replica set. *)

val key : string -> string
(** The shard key of a wire path: its first component, or ["/"] for the
    root itself. *)

val owners : Ring.t -> string -> string list
(** A key's owners under a ring, primary first; every member for the
    root.  Empty on an empty ring.  A key's primary, the root's
    included, is the first member clockwise from it
    ({!Ring.lookup}). *)

val moves :
  before:Ring.t ->
  after:Ring.t ->
  string list ->
  (string * string list * string list) list
(** [(key, owners_before, gained)] for each key whose owners gained a
    member between the two rings: the given keys in sorted order, then
    the root, which every joining member gains (unless [before] is
    empty: there is no root ACL to copy). *)

(** {1 Local state} *)

type holders = string -> Idbox_chirp.Server.t list
(** The local servers holding a key. *)

type entries := Idbox_chirp.Server.snapshot_entry list
type 'a r := ('a, Idbox_vfs.Errno.t) result

val digest : holders -> string -> string r
(** The key's digest on its first holder; [Error ENOENT] when the key
    is absent there, [Error EHOSTUNREACH] when it has no holder. *)

val snapshot : holders -> string -> entries r
(** The key's snapshot from its first holder; [Ok []] when absent. *)

val install : holders -> string -> entries -> unit r
(** Install a repair of the key on every holder: exactly below the
    root, additively at it.  [Error EINVAL] unless the key is a shard
    key ({!key} gives it back), [Error EHOSTUNREACH] when it has no
    holder. *)

val adopt : holders -> entries -> unit r
(** Install a snapshot additively on every holder of its key. *)

val keys : holders -> string list
(** Every key the holders of the root store: the root, then the shard
    keys present, sorted. *)

(** {1 Requests} *)

val encode_entry : Idbox_chirp.Server.snapshot_entry -> string
(** Wire form of one snapshot entry. *)

val decode_entries : string list -> (entries, string) result
(** Decode a shipped snapshot; fails on the first malformed entry. *)

val digest_request : string -> string
(** [digest; key; depth] as ["#repl"] sends it. *)

val snapshot_request : string -> string
(** [snapshot; key; depth] as ["#repl"] sends it. *)

val repair_request : string -> entries -> string
(** A push of the key's snapshot as ["#repl"] sends it: [install] at the
    root, [repair; key] below it. *)

val exchange_epochs : holders -> (string -> string r) -> bool r
(** One revocation-epoch exchange: send the root holders' epochs through
    [call], max-merge the reply into each of them.  [Ok false] when the
    reply does not decode; [Error] when the call failed. *)

val answer : Idbox_kernel.Metrics.t -> holders -> string list -> string
(** The reply to one anti-entropy request, already decoded into
    fields. *)
