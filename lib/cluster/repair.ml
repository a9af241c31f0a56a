module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Server = Idbox_chirp.Server
module Wire = Idbox_chirp.Wire
module Revocations = Idbox_auth.Delegation.Revocations
module Errno = Idbox_vfs.Errno

type t = {
  rp_node : Replica.node;
  rp_interval_ns : int64;
  mutable rp_last_sweep : int64;
  mutable rp_last_gen : int;
  mutable rp_heal_pending : bool;  (* membership changed; sweep next tick *)
}

let attach ?(interval_ns = 30_000_000_000L) node =
  {
    rp_node = node;
    rp_interval_ns = Int64.max 1L interval_ns;
    rp_last_sweep = Clock.now (Network.clock (Replica.net node));
    rp_last_gen = Membership.generation (Replica.membership node);
    rp_heal_pending = false;
  }

let metric t m =
  Metrics.incr (Metrics.counter (Network.metrics (Replica.net t.rp_node)) m)

let call t ~addr payload =
  Network.call (Replica.net t.rp_node)
    ~src:(Replica.src t.rp_node)
    ~timeout_ns:Replica.fwd_timeout_ns
    ~addr:(Replica.repl_addr addr) payload

(* The replica set responsible for a key under the node's current ring.
   Root-key state (the export root's ACL) lives on every member, like
   root-key mutations fan out to every member. *)
let owners t key =
  let ring = Replica.ring t.rp_node in
  if String.equal key "/" then Ring.nodes ring
  else Ring.successors ring key (Replica.replicas t.rp_node)

let primary_of t key =
  if String.equal key "/" then Ring.lookup (Replica.ring t.rp_node) "/"
  else match owners t key with [] -> None | p :: _ -> Some p

(* The digest the primary compares against, computed locally.  For the
   root key only the ACL text counts: every node legitimately holds a
   different set of top-level directories (its own shards), so child
   names must not enter the comparison. *)
let local_digest t key =
  let server = Replica.server t.rp_node in
  if String.equal key "/" then
    match Server.snapshot_subtree ~recurse:false server "/" with
    | Ok (Server.Snap_dir { acl; _ } :: _) ->
      Ok (Digest.to_hex (Digest.string acl))
    | Ok _ -> Ok ""
    | Error e -> Error e
  else Server.subtree_digest server key

(* Ship this node's authoritative copy of [key] to [addr].  Root
   repairs use the additive [install] verb (the ACL alone); everything
   else uses [repair], which also deletes divergent extras. *)
let push t ~key ~peer ~addr =
  let is_root = String.equal key "/" in
  let server = Replica.server t.rp_node in
  match Server.snapshot_subtree ~recurse:(not is_root) server key with
  | Error _ -> metric t "cluster.repair.fail"
  | Ok entries ->
    let blobs = List.map Replica.encode_entry entries in
    let payload =
      if is_root then Wire.encode ("install" :: blobs)
      else Wire.encode ("repair" :: key :: blobs)
    in
    (match call t ~addr payload with
     | Ok reply when (match Wire.decode reply with
                      | Ok [ "ok" ] -> true
                      | _ -> false) ->
       metric t "cluster.repair.push"
     | Ok _ ->
       metric t "cluster.repair.fail";
       Replica.note_pending t.rp_node ~key ~peer ~errno:"EIO"
     | Error e ->
       metric t "cluster.repair.fail";
       Replica.note_pending t.rp_node ~key ~peer ~errno:(Errno.to_string e))

(* The primary holds no copy of [key] at all, but some peer does — the
   key was created on the other side of a partition (acknowledged
   there, never replicated here).  Adopt the first reachable peer's
   snapshot as our own, then repair normally: the data becomes
   authoritative by arriving at the primary, not by staying where it
   was stranded.  Without tombstones this can also resurrect a shard
   root deleted while a stale copy survived elsewhere — the documented
   price (DESIGN §9 failure table). *)
let adopt t key peers =
  List.exists
    (fun peer ->
      match Membership.addr_of (Replica.membership t.rp_node) peer with
      | None -> false
      | Some addr ->
        (match call t ~addr (Wire.encode [ "snapshot"; key; "all" ]) with
         | Ok reply ->
           (match Wire.decode reply with
            | Ok ("ok" :: (_ :: _ as blobs)) ->
              (match Replica.decode_entries blobs with
               | Error _ -> false
               | Ok entries ->
                 (match
                    Server.install_snapshot (Replica.server t.rp_node) entries
                  with
                  | Ok () ->
                    metric t "cluster.repair.adopt";
                    true
                  | Error _ -> false))
            | Ok _ | Error _ -> false)
         | Error _ -> false))
    peers

(* As the key's primary, compare digests with each owner (plus any
   specifically suspected members) and push where they differ.  Each
   side computes its own digest — nothing shipped is trusted as a
   description of remote state, only compared. *)
let rec repair_key ?(adopted = false) t key ~extra =
  let self = Replica.name t.rp_node in
  let peers =
    List.sort_uniq String.compare
      (List.filter (fun n -> not (String.equal n self)) (owners t key @ extra))
  in
  if peers <> [] then
    match local_digest t key with
    | Error Errno.ENOENT when (not adopted) && not (String.equal key "/") ->
      if adopt t key peers then repair_key ~adopted:true t key ~extra
      else metric t "cluster.repair.fail"
    | Error _ -> metric t "cluster.repair.fail"
    | Ok mine ->
      let depth = if String.equal key "/" then "acl" else "all" in
      List.iter
        (fun peer ->
          match Membership.addr_of (Replica.membership t.rp_node) peer with
          | None -> ()
          | Some addr ->
            metric t "cluster.repair.check";
            (match call t ~addr (Wire.encode [ "digest"; key; depth ]) with
             | Ok reply ->
               (match Wire.decode reply with
                | Ok [ "ok"; theirs ] when String.equal theirs mine ->
                  metric t "cluster.repair.clean"
                | Ok [ "ok"; _ ] ->
                  metric t "cluster.repair.diverged";
                  push t ~key ~peer ~addr
                | Ok _ | Error _ ->
                  metric t "cluster.repair.fail";
                  Replica.note_pending t.rp_node ~key ~peer ~errno:"EIO")
             | Error e ->
               metric t "cluster.repair.fail";
               Replica.note_pending t.rp_node ~key ~peer
                 ~errno:(Errno.to_string e)))
        peers

(* Not the primary for this key: hand the work to whoever is, naming
   ourselves so the primary's check includes this copy even if the ring
   no longer lists us as an owner. *)
let handoff t ~key ~primary =
  match Membership.addr_of (Replica.membership t.rp_node) primary with
  | None -> ()
  | Some addr ->
    metric t "cluster.repair.handoff";
    ignore
      (call t ~addr (Wire.encode [ "hint"; key; Replica.name t.rp_node ]))

let dispatch t key ~extra =
  match primary_of t key with
  | None -> ()
  | Some p when String.equal p (Replica.name t.rp_node) ->
    repair_key t key ~extra
  | Some p -> handoff t ~key ~primary:p

(* Revocation-epoch gossip: exchange (delegator, epoch) entries with
   every other member.  Merges are pointwise max — monotone — so the
   exchange is idempotent and order-free; [Revoke] fan-out covers the
   connected case, this sweep heals whatever a partition dropped.  The
   reply carries the peer's entries back, so one successful exchange
   converges the pair in a single round trip. *)
let gossip_epochs t =
  let self = Replica.name t.rp_node in
  let server = Replica.server t.rp_node in
  List.iter
    (fun peer ->
      if not (String.equal peer self) then
        match Membership.addr_of (Replica.membership t.rp_node) peer with
        | None -> ()
        | Some addr ->
          metric t "cluster.revocation.gossip";
          (match
             call t ~addr
               (Wire.encode
                  ("epochs" :: Revocations.to_fields (Server.epoch_entries server)))
           with
           | Ok reply ->
             (match Wire.decode reply with
              | Ok ("ok" :: fields) ->
                ignore (Server.merge_epochs server (Revocations.of_fields fields))
              | Ok _ | Error _ -> metric t "cluster.repair.fail")
           | Error _ -> metric t "cluster.repair.fail"))
    (Ring.nodes (Replica.ring t.rp_node))

let sweep t =
  metric t "cluster.repair.sweep";
  (* Gossip runs on every sweep, even with an empty local store: the
     exchange is bidirectional, so a node that knows nothing still
     *pulls* whatever its peers know.  The old only-if-non-empty guard
     saved traffic on a quiescent cluster but stalled revocations
     whenever the knowing side could not reach us (asymmetric
     partition, crashed pusher) — a revoked chain kept working on the
     ignorant node until some unrelated divergence woke its sweep. *)
  gossip_epochs t;
  let keys =
    match Server.shard_roots (Replica.server t.rp_node) with
    | Ok ks -> ks
    | Error _ -> []
  in
  List.iter (fun key -> dispatch t key ~extra:[]) ("/" :: keys)

let tick t =
  let node = t.rp_node in
  let now = Clock.now (Network.clock (Replica.net node)) in
  let gen = Membership.generation (Replica.membership node) in
  if gen <> t.rp_last_gen then begin
    (* Membership just changed (a heal or a join): hold fire for one
       tick so the routers' rebalance migrates fresh data onto
       re-admitted members before any primary pushes its copy — a
       re-admitted primary pushing immediately could overwrite writes
       acknowledged by the interim primary while it was out. *)
    t.rp_last_gen <- gen;
    t.rp_heal_pending <- true
  end
  else begin
    let pending = Replica.take_pending node in
    List.iter (fun (key, peer, _errno) ->
        dispatch t key ~extra:(if String.equal peer "" then [] else [ peer ]))
      (List.sort_uniq compare (List.map (fun (k, p, _) -> (k, p, "")) pending));
    if t.rp_heal_pending || Int64.sub now t.rp_last_sweep >= t.rp_interval_ns
    then begin
      t.rp_heal_pending <- false;
      t.rp_last_sweep <- now;
      sweep t
    end
  end
