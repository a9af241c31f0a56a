module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Wire = Idbox_chirp.Wire
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
    ~timeout_ns:Replica.peer_timeout_ns
    ~addr:(Replica.repl_addr addr) payload

(* The fields of [addr]'s reply; [] when the exchange or its decoding
   failed. *)
let ask t ~addr payload =
  match call t ~addr payload with
  | Ok reply -> Result.value (Wire.decode reply) ~default:[]
  | Error _ -> []

let holders t = Replica.holders t.rp_node
let addr_of t peer = Membership.addr_of (Replica.membership t.rp_node) peer

(* Ship this node's authoritative copy of [key] to [addr]
   ({!Shard.repair_request}: the install verb at the root, the exact
   repair verb below it). *)
let push t ~key ~peer ~addr =
  match Shard.snapshot (holders t) key with
  | Error _ -> metric t "cluster.repair.fail"
  | Ok entries ->
    (match ask t ~addr (Shard.repair_request key entries) with
     | [ "ok" ] -> metric t "cluster.repair.push"
     | _ ->
       metric t "cluster.repair.fail";
       Replica.note_pending t.rp_node ~key ~peer)

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
      match addr_of t peer with
      | None -> false
      | Some addr ->
        (match ask t ~addr (Shard.snapshot_request key) with
         | "ok" :: (_ :: _ as blobs) ->
           (match
              Result.map (Shard.adopt (holders t)) (Shard.decode_entries blobs)
            with
            | Ok (Ok ()) ->
              metric t "cluster.repair.adopt";
              true
            | Ok (Error _) | Error _ -> false)
         | _ -> false))
    peers

(* As the key's primary, compare digests with each owner (plus any
   specifically suspected members) and push where they differ.  Each
   side computes its own digest — nothing shipped is trusted as a
   description of remote state, only compared. *)
let rec repair_key ?(adopted = false) t key ~extra =
  let self = Replica.name t.rp_node in
  let peers =
    List.sort_uniq String.compare
      (List.filter
         (fun n -> not (String.equal n self))
         (Shard.owners (Replica.ring t.rp_node) key @ extra))
  in
  if peers <> [] then
    match Shard.digest (holders t) key with
    | Error Errno.ENOENT when not adopted ->
      if adopt t key peers then repair_key ~adopted:true t key ~extra
      else metric t "cluster.repair.fail"
    | Error _ -> metric t "cluster.repair.fail"
    | Ok mine ->
      List.iter
        (fun peer ->
          match addr_of t peer with
          | None -> ()
          | Some addr ->
            metric t "cluster.repair.check";
            (match ask t ~addr (Shard.digest_request key) with
             | [ "ok"; theirs ] when String.equal theirs mine ->
               metric t "cluster.repair.clean"
             | [ "ok"; _ ] ->
               metric t "cluster.repair.diverged";
               push t ~key ~peer ~addr
             | _ ->
               metric t "cluster.repair.fail";
               Replica.note_pending t.rp_node ~key ~peer))
        peers

(* Not the primary for this key: hand the work to whoever is, naming
   ourselves so the primary's check includes this copy even if the ring
   no longer lists us as an owner. *)
let handoff t ~key ~primary =
  match addr_of t primary with
  | None -> ()
  | Some addr ->
    metric t "cluster.repair.handoff";
    ignore
      (call t ~addr (Wire.encode [ "hint"; key; Replica.name t.rp_node ]))

let dispatch t key ~extra =
  match Ring.lookup (Replica.ring t.rp_node) key with
  | None -> ()
  | Some p when String.equal p (Replica.name t.rp_node) ->
    repair_key t key ~extra
  | Some p -> handoff t ~key ~primary:p

(* Revocation-epoch gossip with every other member, one
   {!Shard.exchange_epochs} each: [Revoke] fan-out covers the connected
   case, this sweep heals whatever a partition dropped, and one
   successful exchange converges the pair. *)
let gossip_epochs t =
  let self = Replica.name t.rp_node in
  List.iter
    (fun peer ->
      if not (String.equal peer self) then
        match addr_of t peer with
        | None -> ()
        | Some addr ->
          metric t "cluster.revocation.gossip";
          (match Shard.exchange_epochs (holders t) (call t ~addr) with
           | Ok true -> ()
           | Ok false | Error _ -> metric t "cluster.repair.fail"))
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
  List.iter (fun key -> dispatch t key ~extra:[]) (Shard.keys (holders t))

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
    List.iter
      (fun (key, peer) ->
        dispatch t key ~extra:(if String.equal peer "" then [] else [ peer ]))
      (Replica.take_pending node);
    if t.rp_heal_pending || Int64.sub now t.rp_last_sweep >= t.rp_interval_ns
    then begin
      t.rp_heal_pending <- false;
      t.rp_last_sweep <- now;
      sweep t
    end
  end
