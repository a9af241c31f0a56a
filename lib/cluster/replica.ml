module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Breaker = Idbox_net.Breaker
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Trace = Idbox_kernel.Trace
module Server = Idbox_chirp.Server
module Protocol = Idbox_chirp.Protocol
module Wire = Idbox_chirp.Wire
module Principal = Idbox_identity.Principal
module Errno = Idbox_vfs.Errno

let repl_addr addr = addr ^ "#repl"

let shard_key = Shard.key

(* {1 The attached node} *)

(* A node re-reads the catalog at most this often to track membership. *)
let refresh_interval_ns = 5_000_000_000L

(* One exchange between servers waits this long: a forward, a catalog
   poll, an anti-entropy or a geo exchange.  A partitioned peer or
   catalog costs bounded time per mutation. *)
let peer_timeout_ns = 50_000_000L

(* The most entries the pending-repair set holds. *)
let pending_cap = 64

type node = {
  nd_net : Network.t;
  nd_server : Server.t;
  nd_name : string;
  nd_addr : string;
  nd_src : string;  (* this node's host, for partition matching *)
  nd_membership : Membership.t;
  nd_trace : Trace.ring option;
  (* Shard keys known (or suspected) to be diverged on some peer, as
     (key, peer) pairs, the peer [""] when unknown (a hint): the
     anti-entropy pass checks these first, without waiting for its
     sweep cadence.  Fed by forward failures and by untrusted hints. *)
  nd_pending : (string * string, unit) Hashtbl.t;
  (* Per-peer circuit breakers on the forward path: a peer that keeps
     timing out is skipped (straight to the pending-repair set) instead
     of charging every mutation a forward timeout. *)
  nd_breakers : (string, Breaker.t) Hashtbl.t;
  mutable nd_ring : Ring.t;
  mutable nd_last_refresh : int64;
}

let name node = node.nd_name
let ring node = node.nd_ring
let membership node = node.nd_membership
let src node = node.nd_src
let net node = node.nd_net

(* This member's copy of every key is its own server's. *)
let holders node : Shard.holders = fun _ -> [ node.nd_server ]

let metric node m =
  Metrics.incr (Metrics.counter (Network.metrics node.nd_net) m)

(* {1 The pending-repair set}

   Bounded: under a long partition every forward fails, and an
   unbounded set would just be a second queue to lose.  Dropping is
   safe — the cadence sweep covers every local shard key anyway; the
   pending set only buys priority. *)

(* Returns whether the entry was admitted (or refreshed) — a full table
   drops it, and the caller may want to count the drop under its own
   name (a dropped read-repair hint is a different signal than a
   dropped forward failure). *)
let note_pending_admitted node ~key ~peer =
  if Hashtbl.mem node.nd_pending (key, peer) then true
  else if Hashtbl.length node.nd_pending >= pending_cap then begin
    metric node "cluster.repair.pending.drop";
    false
  end
  else begin
    Hashtbl.replace node.nd_pending (key, peer) ();
    metric node "cluster.repair.pending";
    true
  end

let note_pending node ~key ~peer =
  ignore (note_pending_admitted node ~key ~peer)

(* Drain the set in deterministic (sorted) order.  Every tick drains
   every member, and the set is almost always empty. *)
let take_pending node =
  if Hashtbl.length node.nd_pending = 0 then []
  else begin
    let all = Hashtbl.fold (fun p () acc -> p :: acc) node.nd_pending [] in
    Hashtbl.reset node.nd_pending;
    List.sort compare all
  end

let span node ~identity ~syscall ~verdict ~cost_ns =
  match node.nd_trace with
  | None -> ()
  | Some ring ->
    Trace.span ring ~time:(Clock.now (Network.clock node.nd_net)) ~pid:0
      ~identity ~syscall ~verdict ~cost_ns

let breaker_for node peer =
  match Hashtbl.find_opt node.nd_breakers peer with
  | Some b -> b
  | None ->
    let b =
      Breaker.create ~threshold:3 ~reset_ns:500_000_000L
        ~prefix:"cluster.breaker"
        ~on_transition:(fun subject state ->
          span node ~identity:node.nd_name ~syscall:"cluster.breaker"
            ~verdict:(subject ^ ":" ^ Breaker.state_name state) ~cost_ns:0L)
        ~clock:(Network.clock node.nd_net)
        ~metrics:(Network.metrics node.nd_net)
        peer
    in
    Hashtbl.replace node.nd_breakers peer b;
    b

let refresh_now node =
  node.nd_last_refresh <- Clock.now (Network.clock node.nd_net);
  match Membership.refresh node.nd_membership with
  | Ok true -> node.nd_ring <- Ring.create (Membership.names node.nd_membership)
  | Ok false | Error _ -> ()

(* Track membership lazily: at most one catalog read per refresh
   interval, so a hot write path does not double the catalog's load. *)
let maybe_refresh node =
  if
    Ring.is_empty node.nd_ring
    || Int64.sub (Clock.now (Network.clock node.nd_net)) node.nd_last_refresh
       >= refresh_interval_ns
  then refresh_now node

let tick = maybe_refresh

(* Forward one fresh mutation to the other owners of its shard key
   ({!Shard.owners}: every member, for the root key). *)
let forward node ~identity op =
  maybe_refresh node;
  let key = Shard.key (Protocol.operation_path op) in
  let peers =
    List.filter
      (fun n -> not (String.equal n node.nd_name))
      (Shard.owners node.nd_ring key)
  in
  let principal = Principal.to_string identity in
  let payload =
    Wire.encode [ "apply"; principal; Protocol.operation_to_wire op ]
  in
  (* Fan out concurrently: every peer's forward is submitted before any
     verdict is awaited, so the legs share the wire and the fan-out
     costs one round trip, not one per peer.  Awaiting pumps the single
     event loop, so all in-flight forwards progress together; verdicts
     are collected in submission order, keeping metrics and the pending
     set deterministic. *)
  let flights =
    List.filter_map
      (fun peer ->
        match Membership.addr_of node.nd_membership peer with
        | None -> None
        | Some addr ->
          if not (Breaker.allow (breaker_for node peer)) then begin
            (* Known-bad peer: skip the timeout, go straight to the
               pending-repair set — anti-entropy will make it whole
               once the breaker probes it back. *)
            metric node "cluster.replica.skip";
            note_pending node ~key ~peer;
            span node ~identity:principal ~syscall:"cluster.replicate"
              ~verdict:(peer ^ ":short_circuit") ~cost_ns:0L;
            None
          end
          else begin
            metric node "cluster.replicate";
            let t0 = Clock.now (Network.clock node.nd_net) in
            Some
              ( peer,
                t0,
                Network.submit node.nd_net ~src:node.nd_src
                  ~timeout_ns:peer_timeout_ns ~addr:(repl_addr addr)
                  payload )
          end)
      peers
  in
  List.iter
    (fun (peer, t0, tok) ->
      let verdict =
        match Network.await node.nd_net tok with
        | Ok reply ->
          (* Any decoded reply — even a rejection — proves liveness. *)
          Breaker.success (breaker_for node peer);
          (match Wire.decode reply with
           | Ok [ "ok" ] -> "ok"
           | Ok ("error" :: e :: _) -> e
           | Ok _ | Error _ -> "EIO")
        | Error e ->
          Breaker.failure ~errno:e (breaker_for node peer);
          Errno.to_string e
      in
      if not (String.equal verdict "ok") then begin
        metric node "cluster.replica.fail";
        (* The peer missed (or rejected) this mutation: its copy of
           the key is now suspect.  Remember exactly which member and
           why, so anti-entropy checks this range first. *)
        note_pending node ~key ~peer
      end;
      span node ~identity:principal ~syscall:"cluster.replicate"
        ~verdict:(peer ^ ":" ^ verdict)
        ~cost_ns:(Int64.sub (Clock.now (Network.clock node.nd_net)) t0))
    flights

let handle node payload =
  match Wire.decode payload with
  | Ok [ "apply"; principal; opblob ] ->
    (match Protocol.operation_of_wire opblob with
     | Error _ -> Wire.encode [ "error"; "EINVAL" ]
     | Ok op ->
       (match
          Server.apply node.nd_server Server.Peer
            ~identity:(Principal.of_string principal) op
        with
        | Server.Applied (Protocol.R_error (e, _)) ->
          Wire.encode [ "error"; Errno.to_string e ]
        | Server.Applied _ | Server.Replayed _ -> Wire.encode [ "ok" ]))
  | Ok ("hint" :: key :: rest) ->
    (* An untrusted nudge ("this key looked diverged from where I sat"):
       it only schedules a digest check the node performs itself, so a
       bogus hint costs one comparison, never an install.  An optional
       origin names a member to include in the check — how a non-owner
       stuck holding a key gets itself repaired. *)
    metric node "cluster.repair.hint";
    let peer = match rest with origin :: _ -> origin | [] -> "" in
    if not (note_pending_admitted node ~key ~peer) then
      (* Bounded on purpose: under a flapping WAN every failed-over
         read sends a hint, and the cadence sweep covers every key
         anyway — shedding the overflow loses priority, not repair. *)
      metric node "cluster.repair.hint_dropped";
    Wire.encode [ "ok" ]
  | Ok fields ->
    (* The anti-entropy verbs, on this member alone. *)
    Shard.answer (Network.metrics node.nd_net) (holders node) fields
  | Error _ -> Wire.encode [ "error"; "EINVAL" ]

let attach ~net ~server ~name ~catalog ?trace () =
  let addr = Server.addr server in
  let src = Fault.host_of addr in
  let node =
    {
      nd_net = net;
      nd_server = server;
      nd_name = name;
      nd_addr = addr;
      nd_src = src;
      nd_membership =
        Membership.create ~src ~timeout_ns:peer_timeout_ns net ~catalog;
      nd_trace = trace;
      nd_pending = Hashtbl.create 16;
      nd_breakers = Hashtbl.create 8;
      nd_ring = Ring.create [];
      nd_last_refresh = Int64.min_int;
    }
  in
  Network.listen net ~addr:(repl_addr addr) (fun payload -> handle node payload);
  Server.set_mutation_hook server (fun ~identity op -> forward node ~identity op);
  maybe_refresh node;
  node

(* {1 Rebalance migration} *)

let rebalance net ?(src = "client") ~before ~after ~old_view ~new_view
    ~prefixes () =
  let count m = Metrics.incr (Metrics.counter (Network.metrics net) m) in
  let addrs view = List.filter_map (fun n -> List.assoc_opt n view) in
  (* Pull [key]'s snapshot from any reachable old owner and install it
     on each member that gained the key. *)
  let migrate (key, sources, gained) =
    let pulled =
      match addrs old_view sources with
      | [] -> Error Errno.EHOSTUNREACH
      | sources ->
        Network.call_any net ~src ~addrs:(List.map repl_addr sources)
          (Shard.snapshot_request key)
    in
    match Result.map (fun (_, reply) -> Wire.decode reply) pulled with
    | Ok (Ok ("ok" :: blobs)) ->
      let payload = Wire.encode ("install" :: blobs) in
      List.fold_left
        (fun n target ->
          match Network.call net ~src ~addr:(repl_addr target) payload with
          | Ok _ ->
            count "cluster.migrate";
            n + 1
          | Error _ ->
            count "cluster.migrate.lost";
            n)
        0 (addrs new_view gained)
    | Ok (Ok _ | Error _) | Error _ ->
      count "cluster.migrate.lost";
      0
  in
  List.fold_left
    (fun n move -> n + migrate move)
    0 (Shard.moves ~before ~after prefixes)
