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
module Revocations = Idbox_auth.Delegation.Revocations
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno

let repl_addr addr = addr ^ "#repl"

let shard_key path =
  match Path.components path with [] -> "/" | c :: _ -> c

(* {1 Snapshot entries on the wire} *)

let encode_entry = function
  | Server.Snap_dir { path; acl } -> Wire.encode [ "dir"; path; acl ]
  | Server.Snap_file { path; data } -> Wire.encode [ "file"; path; data ]

let decode_entry blob =
  match Wire.decode blob with
  | Ok [ "dir"; path; acl ] -> Ok (Server.Snap_dir { path; acl })
  | Ok [ "file"; path; data ] -> Ok (Server.Snap_file { path; data })
  | Ok _ -> Error "bad snapshot entry"
  | Error e -> Error e

let decode_entries blobs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | blob :: rest ->
      (match decode_entry blob with
       | Ok e -> go (e :: acc) rest
       | Error e -> Error e)
  in
  go [] blobs

(* {1 The attached node} *)

(* A node re-reads the catalog at most this often to track membership. *)
let refresh_interval_ns = 5_000_000_000L

(* Forwards and the node's own catalog polls wait this long: an
   intra-cluster LAN budget, so a partitioned peer or catalog costs
   bounded time per mutation. *)
let fwd_timeout_ns = 50_000_000L

(* The most entries the pending-repair set holds. *)
let pending_cap = 64

(* A shard key known (or suspected) to be diverged on some peer: the
   anti-entropy pass checks these first, without waiting for its sweep
   cadence.  Fed by forward failures and by untrusted hints. *)
type pending = {
  pd_key : string;
  pd_peer : string;  (* member name, or "" when unknown (a hint) *)
  pd_errno : string;  (* why the forward failed, for the trace *)
}

type node = {
  nd_net : Network.t;
  nd_server : Server.t;
  nd_name : string;
  nd_addr : string;
  nd_src : string;  (* this node's host, for partition matching *)
  nd_membership : Membership.t;
  nd_replicas : int;
  nd_vnodes : int;
  nd_trace : Trace.ring option;
  nd_pending : (string, pending) Hashtbl.t;  (* keyed on key ^ "@" ^ peer *)
  (* Per-peer circuit breakers on the forward path: a peer that keeps
     timing out is skipped (straight to the pending-repair set) instead
     of charging every mutation a forward timeout. *)
  nd_breakers : (string, Breaker.t) Hashtbl.t;
  mutable nd_ring : Ring.t;
  mutable nd_last_refresh : int64;
}

let name node = node.nd_name
let ring node = node.nd_ring
let server node = node.nd_server
let membership node = node.nd_membership
let src node = node.nd_src
let net node = node.nd_net
let replicas node = node.nd_replicas

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
let note_pending_admitted node ~key ~peer ~errno =
  let id = key ^ "@" ^ peer in
  if Hashtbl.mem node.nd_pending id then begin
    Hashtbl.replace node.nd_pending id
      { pd_key = key; pd_peer = peer; pd_errno = errno };
    true
  end
  else if Hashtbl.length node.nd_pending >= pending_cap then begin
    metric node "cluster.repair.pending.drop";
    false
  end
  else begin
    Hashtbl.replace node.nd_pending id
      { pd_key = key; pd_peer = peer; pd_errno = errno };
    metric node "cluster.repair.pending";
    true
  end

let note_pending node ~key ~peer ~errno =
  ignore (note_pending_admitted node ~key ~peer ~errno)

let pending_count node = Hashtbl.length node.nd_pending

(* Drain the set in deterministic (sorted) order.  Every tick drains
   every member, and the set is almost always empty. *)
let take_pending node =
  if Hashtbl.length node.nd_pending = 0 then []
  else begin
    let all = Hashtbl.fold (fun _ p acc -> p :: acc) node.nd_pending [] in
    Hashtbl.reset node.nd_pending;
    List.sort
      (fun a b ->
        match String.compare a.pd_key b.pd_key with
        | 0 -> String.compare a.pd_peer b.pd_peer
        | c -> c)
      all
    |> List.map (fun p -> (p.pd_key, p.pd_peer, p.pd_errno))
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

(* Track membership lazily: at most one catalog read per refresh
   interval, so a hot write path does not double the catalog's load. *)
let maybe_refresh node =
  let now = Clock.now (Network.clock node.nd_net) in
  if
    Ring.is_empty node.nd_ring
    || Int64.sub now node.nd_last_refresh >= refresh_interval_ns
  then begin
    node.nd_last_refresh <- now;
    match Membership.refresh node.nd_membership with
    | Ok true ->
      node.nd_ring <-
        Ring.create ~vnodes:node.nd_vnodes (Membership.names node.nd_membership)
    | Ok false | Error _ -> ()
  end

let tick = maybe_refresh

let refresh_now node =
  node.nd_last_refresh <- Clock.now (Network.clock node.nd_net);
  match Membership.refresh node.nd_membership with
  | Ok true ->
    node.nd_ring <-
      Ring.create ~vnodes:node.nd_vnodes (Membership.names node.nd_membership)
  | Ok false | Error _ -> ()

(* Forward one fresh mutation to the other owners of its shard key.
   Root-key mutations (the root ACL) go to every member: each node
   anchors ACL inheritance at its own export root. *)
let forward node ~identity op =
  maybe_refresh node;
  let key = shard_key (Protocol.operation_path op) in
  let owners =
    if String.equal key "/" then Ring.nodes node.nd_ring
    else Ring.successors node.nd_ring key node.nd_replicas
  in
  let peers =
    List.filter (fun n -> not (String.equal n node.nd_name)) owners
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
            note_pending node ~key ~peer ~errno:"short_circuit";
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
                  ~timeout_ns:fwd_timeout_ns ~addr:(repl_addr addr)
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
        note_pending node ~key ~peer ~errno:verdict
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
  | Ok [ "snapshot"; prefix; depth ] ->
    let recurse = not (String.equal depth "dir") in
    (match Server.snapshot_subtree ~recurse node.nd_server prefix with
     | Error e -> Wire.encode [ "error"; Errno.to_string e ]
     | Ok entries -> Wire.encode ("ok" :: List.map encode_entry entries))
  | Ok ("install" :: blobs) ->
    (match decode_entries blobs with
     | Error _ -> Wire.encode [ "error"; "EINVAL" ]
     | Ok entries ->
       (match Server.install_snapshot node.nd_server entries with
        | Ok () -> Wire.encode [ "ok" ]
        | Error e -> Wire.encode [ "error"; Errno.to_string e ]))
  | Ok [ "digest"; prefix; "acl" ] ->
    (* ACL text alone — the root-key comparison, where child names
       legitimately differ between members (each holds its own shards). *)
    (match Server.snapshot_subtree ~recurse:false node.nd_server prefix with
     | Ok (Server.Snap_dir { acl; _ } :: _) ->
       Wire.encode [ "ok"; Digest.to_hex (Digest.string acl) ]
     | Ok _ -> Wire.encode [ "ok"; "" ]
     | Error e -> Wire.encode [ "error"; Errno.to_string e ])
  | Ok [ "digest"; prefix; depth ] ->
    (* The node computes (and vouches for) its own digest — a peer
       never has to trust shipped metadata about local state. *)
    let recurse = not (String.equal depth "dir") in
    (match Server.subtree_digest ~recurse node.nd_server prefix with
     | Ok d -> Wire.encode [ "ok"; d ]
     | Error Errno.ENOENT -> Wire.encode [ "ok"; "" ]  (* absent = empty *)
     | Error e -> Wire.encode [ "error"; Errno.to_string e ])
  | Ok ("hint" :: key :: rest) ->
    (* An untrusted nudge ("this key looked diverged from where I sat"):
       it only schedules a digest check the node performs itself, so a
       bogus hint costs one comparison, never an install.  An optional
       origin names a member to include in the check — how a non-owner
       stuck holding a key gets itself repaired. *)
    metric node "cluster.repair.hint";
    let peer = match rest with origin :: _ -> origin | [] -> "" in
    if not (note_pending_admitted node ~key ~peer ~errno:"hint") then
      (* Bounded on purpose: under a flapping WAN every failed-over
         read sends a hint, and the cadence sweep covers every key
         anyway — shedding the overflow loses priority, not repair. *)
      metric node "cluster.repair.hint_dropped";
    Wire.encode [ "ok" ]
  | Ok ("epochs" :: fields) ->
    (* Bidirectional revocation gossip: max-merge the caller's
       (delegator, epoch) entries, reply with the local ones.  Both
       sides only grow, so one exchange converges the pair regardless
       of who initiated or how often it repeats. *)
    if Server.merge_epochs node.nd_server (Revocations.of_fields fields) then
      metric node "cluster.revocation.merge";
    Wire.encode
      ("ok" :: Revocations.to_fields (Server.epoch_entries node.nd_server))
  | Ok ("repair" :: prefix :: blobs) ->
    (* Authoritative content from the shard's primary: make the local
       subtree exactly equal, deletions included. *)
    (match decode_entries blobs with
     | Error _ -> Wire.encode [ "error"; "EINVAL" ]
     | Ok entries ->
       (match Server.install_subtree_exact node.nd_server ~prefix entries with
        | Ok () -> Wire.encode [ "ok" ]
        | Error e -> Wire.encode [ "error"; Errno.to_string e ]))
  | Ok _ | Error _ -> Wire.encode [ "error"; "EINVAL" ]

let attach ~net ~server ~name ~catalog ?(replicas = 2) ?(vnodes = 64)
    ?trace () =
  let addr = Server.addr server in
  let src = Fault.host_of addr in
  let node =
    {
      nd_net = net;
      nd_server = server;
      nd_name = name;
      nd_addr = addr;
      nd_src = src;
      nd_membership = Membership.create ~src ~timeout_ns:fwd_timeout_ns net ~catalog;
      nd_replicas = max 1 replicas;
      nd_vnodes = vnodes;
      nd_trace = trace;
      nd_pending = Hashtbl.create 16;
      nd_breakers = Hashtbl.create 8;
      nd_ring = Ring.create ~vnodes [];
      nd_last_refresh = Int64.min_int;
    }
  in
  Network.listen net ~addr:(repl_addr addr) (fun payload -> handle node payload);
  Server.set_mutation_hook server (fun ~identity op -> forward node ~identity op);
  maybe_refresh node;
  node

let detach node =
  Server.clear_mutation_hook node.nd_server;
  Network.unlisten node.nd_net ~addr:(repl_addr node.nd_addr)

(* {1 Rebalance migration} *)

let rebalance net ?(src = "client") ?timeout_ns ~before ~after ~old_view
    ~new_view ~replicas ~prefixes () =
  let metrics = Network.metrics net in
  let count m = Metrics.incr (Metrics.counter metrics m) in
  let addr_in view n = List.assoc_opt n view in
  (* Pull a snapshot of [prefix] from any reachable member of [sources]
     and install it on each of [targets]. *)
  let migrate ~prefix ~depth ~sources ~targets =
    match sources with
    | [] ->
      count "cluster.migrate.lost";
      0
    | _ ->
      let group = "migrate:" ^ prefix in
      Network.define_group net ~name:group
        ~addrs:(List.map repl_addr sources);
      let pulled =
        Network.call_any net ~src ?timeout_ns ~group
          (Wire.encode [ "snapshot"; prefix; depth ])
      in
      Network.drop_group net ~name:group;
      (match pulled with
       | Error _ | Ok (_, "") ->
         count "cluster.migrate.lost";
         0
       | Ok (_, reply) ->
         (match Wire.decode reply with
          | Ok ("ok" :: blobs) ->
            let payload = Wire.encode ("install" :: blobs) in
            List.fold_left
              (fun n target ->
                match
                  Network.call net ~src ?timeout_ns ~addr:(repl_addr target)
                    payload
                with
                | Ok _ ->
                  count "cluster.migrate";
                  n + 1
                | Error _ ->
                  count "cluster.migrate.lost";
                  n)
              0 targets
          | Ok _ | Error _ ->
            count "cluster.migrate.lost";
            0))
  in
  let moved_for prefix =
    let owners_before = Ring.successors before prefix replicas in
    let owners_after = Ring.successors after prefix replicas in
    let gained =
      List.filter (fun n -> not (List.mem n owners_before)) owners_after
    in
    if gained = [] then 0
    else
      let sources =
        List.filter_map (fun n -> addr_in old_view n) owners_before
      in
      let targets = List.filter_map (fun n -> addr_in new_view n) gained in
      migrate ~prefix ~depth:"all" ~sources ~targets
  in
  let prefix_moves =
    List.fold_left
      (fun n prefix ->
        if String.equal prefix "/" then n else n + moved_for prefix)
      0
      (List.sort_uniq String.compare prefixes)
  in
  (* Re-admitted or brand-new members missed any root ACL change made
     while they were out: sync the root directory's ACL alone. *)
  let joined =
    List.filter (fun (n, _) -> not (List.mem_assoc n old_view)) new_view
  in
  let root_moves =
    if joined = [] || old_view = [] then 0
    else
      migrate ~prefix:"/" ~depth:"dir"
        ~sources:(List.map snd old_view)
        ~targets:(List.map snd joined)
  in
  prefix_moves + root_moves
