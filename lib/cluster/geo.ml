(* Geo-replicated worlds: asynchronous WAL shipping between regions.

   Each {!World} is one region — its own members, catalog and kernel —
   on a *shared* simulated network, so fault windows can cut the WAN
   between regions while intra-region traffic keeps flowing.  The
   primary region's members report every fresh successful mutation
   through the server's geo hook; the records are sequenced into a
   region log (LSNs), framed with the WAL's checksummed IDBX framing
   and shipped to every secondary on a group-commit cadence.  A
   secondary applies them idempotently — the LSN travels as the dedup
   request id — and serves bounded-staleness local reads under a
   staleness lease refreshed by segments and heartbeats.

   Failover is explicit and epoch-fenced: {!promote} bumps the fencing
   epoch, and every cross-region message carries it.  A deposed primary
   hears the higher epoch (or a [fenced] reply) and demotes itself; its
   shipped-but-unacked divergence is reconciled on heal by a Merkle
   push from the new primary — revocation epochs max-merged first, so a
   delegation revocation is never resurrected by a region that missed
   it.  Failback is just another promotion once the old primary has
   been reconciled. *)

module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Network = Idbox_net.Network
module Breaker = Idbox_net.Breaker
module Fault = Idbox_net.Fault
module Server = Idbox_chirp.Server
module Wal = Idbox_chirp.Wal
module Wire = Idbox_chirp.Wire
module Protocol = Idbox_chirp.Protocol
module Principal = Idbox_identity.Principal
module Errno = Idbox_vfs.Errno

type role = Primary | Secondary

type region = {
  rg_name : string;
  rg_world : World.t;
  rg_host : string;  (* the geo endpoint's host, for partition plans *)
  rg_addr : string;  (* the geo endpoint this region listens on *)
  mutable rg_role : role;
  mutable rg_epoch : int;  (* highest fencing epoch heard (or minted) *)
  (* Primary-side state.  The log retains the newest records this
     region has sequenced *or applied* (at most [g_log_retain]), keyed
     by LSN, so a promoted secondary can serve the suffix to laggards
     without a full reconcile; a peer further behind is reconciled. *)
  rg_log : (int, string) Hashtbl.t;
  mutable rg_next_lsn : int;
  rg_acked : (string, int) Hashtbl.t;  (* peer region -> acked LSN *)
  rg_stale : (string, unit) Hashtbl.t;  (* peers needing reconcile *)
  mutable rg_last_ship : int64;
  (* Secondary-side state. *)
  mutable rg_applied_lsn : int;
  mutable rg_primary_tip : int;  (* primary's tip as last heard *)
  mutable rg_primary : string;  (* who this region believes is primary *)
  mutable rg_fresh_at : int64;  (* last proof applied_lsn = primary tip *)
  mutable rg_reconcile : bool;
      (* Lived through a primary change (demoted, or adopted a higher
         epoch): local history may diverge from the new authoritative
         stream, so refuse segments (reply [behind]) until the new
         primary has reconciled us. *)
}

type t = {
  g_net : Network.t;
  g_counters : Metrics.handles;  (* over the network's registry *)
  g_clock : Clock.t;
  g_ship_interval_ns : int64;
  g_batch_max : int;
  g_log_retain : int;  (* records each region's log keeps *)
  mutable g_regions : region list;
}

let geo_host name = "geo." ^ name ^ ".grid.edu"
let geo_addr name = geo_host name ^ ":9098"

let metric t m = Metrics.incr (Metrics.handle t.g_counters m)
let now t = Clock.now t.g_clock

let region_opt t name =
  List.find_opt (fun r -> String.equal r.rg_name name) t.g_regions

let region t name =
  match region_opt t name with
  | Some r -> r
  | None -> invalid_arg ("geo: no region " ^ name)

let role r = r.rg_role
let epoch r = r.rg_epoch
let applied_lsn r = r.rg_applied_lsn
let tip r = r.rg_next_lsn - 1
let needs_reconcile r = r.rg_reconcile
let ship_interval_ns t = t.g_ship_interval_ns
let log_retain t = t.g_log_retain
let log_length r = Hashtbl.length r.rg_log

let staleness t r =
  if r.rg_role = Primary then 0L
  else Int64.max 0L (Int64.sub (now t) r.rg_fresh_at)

(* Every host a partition plan needs to isolate this region: the geo
   endpoint, the catalog, each member, and the conventional client
   host readers default to. *)
let region_hosts t name =
  let rg = region t name in
  rg.rg_host
  :: Fault.host_of (World.catalog_addr rg.rg_world)
  :: ("client." ^ name ^ ".grid.edu")
  :: World.member_hosts rg.rg_world

let wan_windows t ~from_ns ~until_ns ~between:(a, b) =
  List.concat_map
    (fun ha ->
      List.map
        (fun hb -> Fault.window ~from_ns ~until_ns ~between:(ha, hb))
        (region_hosts t b))
    (region_hosts t a)

(* {1 The geo log} *)

(* Log [record] at [lsn] and forget the one [g_log_retain] LSNs older.
   LSNs arrive consecutively (appends, in-order applies, a promotion
   continuing from the applied LSN; a reconcile empties the log), so
   the log never holds more than [g_log_retain] records.  A peer acked
   further back finds holes in [ship_to] and is reconciled instead. *)
let retain t rg ~lsn record =
  Hashtbl.replace rg.rg_log lsn record;
  Hashtbl.remove rg.rg_log (lsn - t.g_log_retain)

let append t rg ~identity op =
  retain t rg ~lsn:rg.rg_next_lsn
    (Wire.encode
       [ "m"; Principal.to_string identity; Protocol.operation_to_wire op ]);
  rg.rg_next_lsn <- rg.rg_next_lsn + 1;
  metric t "cluster.geo.append"

let install_hooks t rg =
  List.iter
    (fun m ->
      Server.set_geo_hook (World.server rg.rg_world m) (fun ~identity op ->
          append t rg ~identity op))
    (World.members rg.rg_world)

let uninstall_hooks rg =
  List.iter
    (fun m -> Server.clear_geo_hook (World.server rg.rg_world m))
    (World.members rg.rg_world)

(* {1 Role changes} *)

let demote t rg ~epoch ~primary =
  if rg.rg_role = Primary then begin
    uninstall_hooks rg;
    Hashtbl.reset rg.rg_acked;
    Hashtbl.reset rg.rg_stale;
    metric t "cluster.geo.demote"
  end;
  rg.rg_role <- Secondary;
  rg.rg_epoch <- max epoch rg.rg_epoch;
  rg.rg_primary <- primary;
  rg.rg_reconcile <- true

let promote t name =
  let rg = region t name in
  if rg.rg_role <> Primary then begin
    rg.rg_epoch <- rg.rg_epoch + 1;
    rg.rg_role <- Primary;
    rg.rg_reconcile <- false;
    rg.rg_primary <- rg.rg_name;
    rg.rg_next_lsn <- rg.rg_applied_lsn + 1;
    (* Records past the applied LSN are a deposed era's history: never
       shipped, overwritten by the new appends.  Drop them now, so the
       retention window stays exact. *)
    Hashtbl.filter_map_inplace
      (fun lsn record -> if lsn < rg.rg_next_lsn then Some record else None)
      rg.rg_log;
    Hashtbl.reset rg.rg_acked;
    Hashtbl.reset rg.rg_stale;
    install_hooks t rg;
    (* Ship on the very next tick: the sooner the peers hear the new
       epoch, the sooner a deposed primary on the other side of a
       healed partition fences itself. *)
    rg.rg_last_ship <- Int64.sub (now t) t.g_ship_interval_ns;
    metric t "cluster.geo.promote"
  end

(* {1 Epoch fencing}

   Every cross-region message carries (sender, epoch).  Lower epochs
   are fenced; higher epochs are adopted (demoting a primary that
   hears one); an equal-epoch claim from a *different* primary — two
   operators promoted concurrently — breaks the tie on the region
   name, deterministically, so exactly one of them survives. *)

let fence_reply rg =
  Wire.encode [ "fenced"; string_of_int rg.rg_epoch; rg.rg_name ]

let check_epoch t rg ~from ~epoch =
  let incumbent =
    match rg.rg_role with Primary -> rg.rg_name | Secondary -> rg.rg_primary
  in
  if
    epoch < rg.rg_epoch
    || (epoch = rg.rg_epoch
        && (not (String.equal from incumbent))
        && String.compare from incumbent < 0)
  then begin
    metric t "cluster.geo.fence.reject";
    Some (fence_reply rg)
  end
  else begin
    if
      epoch > rg.rg_epoch
      || ((not (String.equal from incumbent)) && rg.rg_role = Primary)
    then begin
      metric t "cluster.geo.fence.adopt";
      demote t rg ~epoch ~primary:from
    end;
    rg.rg_primary <- from;
    if epoch > rg.rg_epoch then rg.rg_epoch <- epoch;
    None
  end

(* {1 The region's holders}

   The servers a region holds a key on: its live owners
   ({!Shard.owners}), primary first, and none while the primary is
   down.  The primary has seen every acknowledged write and its repair
   installs its copy exactly, so a copy written without it would be
   undone at its restart, and one read elsewhere may lack a write. *)

let holders rg key =
  let w = rg.rg_world in
  let live m =
    match World.server w m with
    | s when Network.is_up (World.net w) ~addr:(Server.addr s) -> Some s
    | _ | (exception Not_found) -> None
  in
  match World.members w with
  | [] -> []
  | m0 :: _ ->
    let ring = Replica.ring (World.replica w m0) in
    let owners = List.filter_map live (Shard.owners ring key) in
    (match Option.bind (Ring.lookup ring key) live with
     | None -> []
     | Some p -> p :: List.filter (( != ) p) owners)

(* {1 Applying shipped records} *)

(* Apply one record on its key's primary, whose mutation hook fans it
   out to the other owners, as it does a client's write.  [false] when
   the primary is down: the record stays unapplied and unacknowledged,
   and is shipped again after its restart. *)
let apply_record t rg ~lsn record =
  let applied =
    match Wire.decode record with
    | Ok [ "m"; principal; opblob ] ->
      (match Protocol.operation_of_wire opblob with
       | Error _ ->
         metric t "cluster.geo.apply.error";
         true
       | Ok op ->
         (match holders rg (Shard.key (Protocol.operation_path op)) with
          | [] ->
            metric t "cluster.geo.apply.defer";
            false
          | server :: _ ->
            (match
               Server.apply server
                 (Server.Shipped ("geo:" ^ string_of_int lsn))
                 ~identity:(Principal.of_string principal) op
             with
             | Server.Applied _ -> metric t "cluster.geo.apply"
             | Server.Replayed _ -> metric t "cluster.geo.apply.dup");
            true))
    | Ok _ | Error _ ->
      metric t "cluster.geo.apply.error";
      true
  in
  if applied then retain t rg ~lsn record;
  applied

(* {1 The geo endpoint}

   One listener per region.  Its own verbs: [seg] (a shipped segment),
   [hb] (heartbeat / lease refresh) and [reconciled] (reconcile
   complete: adopt the primary's tip).  The anti-entropy verbs are
   {!Shard.answer}'s, over the region's {!holders}; the endpoint adds
   only its epoch fence, on the two that install ([repair] and
   [install] carry the sender and its epoch after the verb).
   Revocation epochs merge unfenced: the merge is a pointwise max, so a
   deposed primary's revocations survive into the new epoch and a
   revoked delegation chain can never be resurrected by failover. *)

(* Integer fields ride the wire as decimal text; a corrupting fault
   profile can damage them without breaking the Wire framing, so each is
   parsed to an option and a bad one is answered [EINVAL]. *)
let einval = Wire.encode [ "error"; "EINVAL" ]

let int_field s k = match int_of_string_opt s with Some n -> k n | None -> einval

let behind t =
  metric t "cluster.geo.behind";
  Wire.encode [ "behind" ]

(* Adopt the primary's tip as heard: the staleness lease is fresh while
   the applied LSN has caught it.  Answers with the applied LSN. *)
let heard_tip t rg tp =
  rg.rg_primary_tip <- max rg.rg_primary_tip tp;
  if rg.rg_applied_lsn >= rg.rg_primary_tip then rg.rg_fresh_at <- now t;
  Wire.encode [ "ok"; string_of_int rg.rg_applied_lsn ]

let answer t rg fields =
  Shard.answer (Network.metrics t.g_net) (holders rg) fields

let handle t rg payload =
  match Wire.decode payload with
  | Ok [ "seg"; from; ep; base; tp; blob ] ->
    int_field ep @@ fun ep ->
    int_field base @@ fun base ->
    int_field tp @@ fun tp ->
    (match check_epoch t rg ~from ~epoch:ep with
     | Some reply -> reply
     | None when rg.rg_reconcile -> behind t
     | None when base > rg.rg_applied_lsn + 1 ->
       (* A gap: the primary's idea of our progress is ahead of the
          truth (its state, not ours, is suspect — e.g. a fresh
          promotion with a thinner log).  Ask for a reconcile. *)
       behind t
     | None ->
       (match Wal.parse_segment blob with
        | Error `Damaged ->
          metric t "cluster.geo.segment.damaged";
          Wire.encode [ "bad" ]
        | Ok records ->
          (* In LSN order, stopping at a record whose key's primary is
             down: the ack then ends before it, so it is shipped again. *)
          let rec apply_from lsn = function
            | [] -> ()
            | record :: rest ->
              if lsn <= rg.rg_applied_lsn then begin
                metric t "cluster.geo.segment.skip";
                apply_from (lsn + 1) rest
              end
              else if apply_record t rg ~lsn record then begin
                rg.rg_applied_lsn <- lsn;
                apply_from (lsn + 1) rest
              end
          in
          apply_from base records;
          metric t "cluster.geo.segment.apply";
          heard_tip t rg tp))
  | Ok [ "hb"; from; ep; tp ] ->
    int_field ep @@ fun ep ->
    int_field tp @@ fun tp ->
    (match check_epoch t rg ~from ~epoch:ep with
     | Some reply -> reply
     | None when rg.rg_reconcile -> behind t
     | None ->
       metric t "cluster.geo.hb";
       heard_tip t rg tp)
  | Ok [ "reconciled"; from; ep; tp ] ->
    int_field ep @@ fun ep ->
    int_field tp @@ fun tp ->
    (match check_epoch t rg ~from ~epoch:ep with
     | Some reply -> reply
     | None ->
       rg.rg_applied_lsn <- tp;
       rg.rg_primary_tip <- tp;
       rg.rg_fresh_at <- now t;
       rg.rg_reconcile <- false;
       (* The retained log described the *old* history; after a full
          state push it no longer matches the authoritative record
          stream, so drop it — a later promotion of this region serves
          laggards through reconcile instead. *)
       Hashtbl.reset rg.rg_log;
       metric t "cluster.geo.reconciled";
       Wire.encode [ "ok" ])
  | Ok ((("repair" as verb) :: from :: ep :: (_ :: _ as rest))
       | (("install" as verb) :: from :: ep :: rest)) ->
    int_field ep @@ fun ep ->
    (match check_epoch t rg ~from ~epoch:ep with
     | Some reply -> reply
     | None ->
       if String.equal verb "repair" then metric t "cluster.geo.repair.key";
       answer t rg (verb :: rest))
  | Ok (("repair" | "install") :: _) | Error _ -> einval
  | Ok (("epochs" :: _) as fields) ->
    metric t "cluster.geo.epochs";
    answer t rg fields
  | Ok fields -> answer t rg fields

(* {1 Shipping} *)

let gcall t rg ~addr payload =
  Network.call t.g_net ~src:rg.rg_host ~timeout_ns:Replica.peer_timeout_ns ~addr
    payload

(* A [fenced] reply deposes us on the spot. *)
let note_fenced t rg reply =
  match Wire.decode reply with
  | Ok [ "fenced"; ep; from ] ->
    (match int_of_string_opt ep with
     | Some e
       when e > rg.rg_epoch
            || (e = rg.rg_epoch && String.compare from rg.rg_name > 0) ->
       demote t rg ~epoch:e ~primary:from;
       true
     | _ -> false)
  | _ -> false

let reconcile_peer t rg peer =
  let call payload = gcall t rg ~addr:peer.rg_addr payload in
  (* Revocation epochs move first: even if the Merkle push below fails
     halfway, no revocation can be lost to the failover. *)
  match Shard.exchange_epochs (holders rg) call with
  | Error _ ->
    metric t "cluster.geo.reconcile.fail";
    false
  | Ok _ ->
    let ask payload =
      match call payload with
      | Ok reply -> Result.value (Wire.decode reply) ~default:[]
      | Error _ -> []
    in
    let theirs =
      match ask (Wire.encode [ "roots" ]) with "ok" :: ks -> ks | _ -> []
    in
    let keys =
      List.sort_uniq String.compare (Shard.keys (holders rg) @ theirs)
    in
    (* Push this region's copy of [key] unless the peer's digest already
       matches it.  A key this region lacks pushes an empty snapshot,
       which deletes the peer's copy. *)
    let push_key key =
      let mine =
        match Shard.digest (holders rg) key with Ok d -> d | Error _ -> ""
      in
      (match ask (Wire.encode [ "digest"; key ]) with
       | [ "ok"; theirs ] -> String.equal theirs mine
       | _ -> false)
      ||
      match Shard.snapshot (holders rg) key with
      | Error _ -> false
      | Ok entries ->
        (match
           call
             (Wire.encode
                ("repair" :: rg.rg_name :: string_of_int rg.rg_epoch :: key
                :: List.map Shard.encode_entry entries))
         with
         | Ok reply ->
           (not (note_fenced t rg reply)) && Wire.decode reply = Ok [ "ok" ]
         | Error _ -> false)
    in
    let all_ok = List.for_all push_key keys in
    if (not all_ok) || rg.rg_role <> Primary then begin
      metric t "cluster.geo.reconcile.fail";
      false
    end
    else (
      let tp = tip rg in
      match
        call
          (Wire.encode
             [ "reconciled"; rg.rg_name; string_of_int rg.rg_epoch;
               string_of_int tp ])
      with
      | Ok reply when note_fenced t rg reply -> false
      | Ok reply when Wire.decode reply = Ok [ "ok" ] ->
        Hashtbl.replace rg.rg_acked peer.rg_name tp;
        metric t "cluster.geo.reconcile";
        true
      | Ok _ | Error _ ->
        metric t "cluster.geo.reconcile.fail";
        false)

let rec range a b = if a > b then [] else a :: range (a + 1) b

(* A peer's answer to a segment or a heartbeat.  Only a segment can be
   answered [bad]: checksum damage in flight, so the ack stays where it
   was and the next cadence re-frames and re-sends. *)
let note_ack t rg peer = function
  | Ok reply when note_fenced t rg reply -> ()
  | Ok reply ->
    (match Wire.decode reply with
     | Ok [ "ok"; n ] ->
       (match int_of_string_opt n with
        | Some n -> Hashtbl.replace rg.rg_acked peer.rg_name n
        | None -> ())
     | Ok [ "behind" ] -> Hashtbl.replace rg.rg_stale peer.rg_name ()
     | Ok [ "bad" ] -> metric t "cluster.geo.ship.damaged"
     | Ok _ | Error _ -> metric t "cluster.geo.ship.fail")
  | Error _ -> metric t "cluster.geo.ship.fail"

let ship_to t rg peer =
  let tp = tip rg in
  match Hashtbl.find_opt rg.rg_acked peer.rg_name with
  | Some acked when acked < tp ->
    let last = min tp (acked + t.g_batch_max) in
    let lsns = range (acked + 1) last in
    let records = List.filter_map (Hashtbl.find_opt rg.rg_log) lsns in
    if List.length records <> List.length lsns then
      (* Holes in the retained log (the peer is further behind than
         the retention window, or this primary was reconciled as a
         secondary once): incremental shipping cannot serve this peer —
         fall back to a full reconcile. *)
      Hashtbl.replace rg.rg_stale peer.rg_name ()
    else begin
      metric t "cluster.geo.ship";
      note_ack t rg peer
        (gcall t rg ~addr:peer.rg_addr
           (Wire.encode
              [ "seg"; rg.rg_name; string_of_int rg.rg_epoch;
                string_of_int (acked + 1); string_of_int tp;
                Wal.frame_segment records ]))
    end
  | Some _ | None ->
    (* Caught up — or progress unknown (a fresh promotion): heartbeat
       to refresh the peer's staleness lease and learn its applied
       LSN. *)
    metric t "cluster.geo.hb.send";
    note_ack t rg peer
      (gcall t rg ~addr:peer.rg_addr
         (Wire.encode
            [ "hb"; rg.rg_name; string_of_int rg.rg_epoch; string_of_int tp ]))

let ship_all t rg =
  List.iter
    (fun peer ->
      if rg.rg_role = Primary && not (String.equal peer.rg_name rg.rg_name)
      then
        if Hashtbl.mem rg.rg_stale peer.rg_name then begin
          if reconcile_peer t rg peer then
            Hashtbl.remove rg.rg_stale peer.rg_name
        end
        else ship_to t rg peer)
    t.g_regions

let ship_now t =
  List.iter (fun rg -> if rg.rg_role = Primary then ship_all t rg) t.g_regions

let tick t =
  let n = now t in
  List.iter
    (fun rg ->
      if
        rg.rg_role = Primary
        && Int64.sub n rg.rg_last_ship >= t.g_ship_interval_ns
      then begin
        rg.rg_last_ship <- n;
        ship_all t rg
      end)
    t.g_regions

(* Simulate the shipper side of a link reset: the ack for everything
   after [to_lsn] is forgotten, so the next cadence re-ships records
   the peer already applied — which must be a byte-identical no-op
   (the dedup journal absorbs them). *)
let rewind_ack t ~primary ~peer ~to_lsn =
  Hashtbl.replace (region t primary).rg_acked peer to_lsn

let link ?(ship_interval_ns = 200_000_000L) ?(batch_max = 64) ~primary net
    worlds =
  (match worlds with
   | [] | [ _ ] -> invalid_arg "geo: need at least two regions"
   | _ -> ());
  let clock = Network.clock net in
  let t =
    {
      g_net = net;
      g_counters = Metrics.handles (Network.metrics net);
      g_clock = clock;
      g_ship_interval_ns = Int64.max 1L ship_interval_ns;
      g_batch_max = max 1 batch_max;
      g_log_retain = 16 * max 1 batch_max;
      g_regions = [];
    }
  in
  let mk (name, world) =
    {
      rg_name = name;
      rg_world = world;
      rg_host = geo_host name;
      rg_addr = geo_addr name;
      rg_role = Secondary;
      rg_epoch = 1;
      rg_log = Hashtbl.create 64;
      rg_next_lsn = 1;
      rg_acked = Hashtbl.create 4;
      rg_stale = Hashtbl.create 4;
      rg_last_ship = Clock.now clock;
      rg_applied_lsn = 0;
      rg_primary_tip = 0;
      rg_primary = primary;
      rg_fresh_at = Clock.now clock;
      rg_reconcile = false;
    }
  in
  t.g_regions <- List.map mk worlds;
  let prg = region t primary in
  prg.rg_role <- Primary;
  install_hooks t prg;
  (* Every peer starts stale: the first cadence runs a full reconcile,
     so regions that were not born identical (the primary had pre-link
     writes) still converge before incremental shipping begins. *)
  List.iter
    (fun r ->
      if not (String.equal r.rg_name primary) then
        Hashtbl.replace prg.rg_stale r.rg_name ())
    t.g_regions;
  List.iter
    (fun rg ->
      Network.listen net ~addr:rg.rg_addr (fun payload -> handle t rg payload))
    t.g_regions;
  t

(* {1 Bounded-staleness readers}

   A reader attaches to one region.  Reads are served by the local
   region's router while the staleness lease holds ([applied_lsn]
   caught the primary tip within [bound_ns]); out of bound, the
   client-chosen policy either proxies to the primary region through a
   circuit breaker or answers [ESTALE] (retry after {!retry_after}).
   Writes always route to the believed primary. *)

type read_policy = Proxy | Stale

type reader = {
  rd_geo : t;
  rd_region : region;
  rd_src : string;
  rd_creds : Idbox_auth.Credential.t list;
  rd_policy : read_policy;
  rd_bound_ns : int64;
  rd_local : Router.t;
  rd_remote : (string, Router.t) Hashtbl.t;
  rd_breakers : (string, Breaker.t) Hashtbl.t;
}

let connect t ~region:name ~credentials ?src ?(policy = Proxy)
    ?(bound_ns = 1_000_000_000L) () =
  let rg = region t name in
  let src =
    match src with Some s -> s | None -> "client." ^ name ^ ".grid.edu"
  in
  match World.connect ~src rg.rg_world ~credentials with
  | Error m -> Error m
  | Ok local ->
    Ok
      {
        rd_geo = t;
        rd_region = rg;
        rd_src = src;
        rd_creds = credentials;
        rd_policy = policy;
        rd_bound_ns = bound_ns;
        rd_local = local;
        rd_remote = Hashtbl.create 2;
        rd_breakers = Hashtbl.create 2;
      }

let retry_after rd = rd.rd_geo.g_ship_interval_ns

let transient = function
  | Errno.ETIMEDOUT | Errno.ECONNRESET | Errno.ECONNREFUSED
  | Errno.EHOSTUNREACH | Errno.EAGAIN ->
    true
  | _ -> false

let breaker_for rd name =
  match Hashtbl.find_opt rd.rd_breakers name with
  | Some b -> b
  | None ->
    let t = rd.rd_geo in
    let b =
      Breaker.create ~threshold:3 ~reset_ns:500_000_000L
        ~prefix:"cluster.geo.breaker" ~clock:t.g_clock
        ~metrics:(Network.metrics t.g_net)
        (rd.rd_region.rg_name ^ "->" ^ name)
    in
    Hashtbl.replace rd.rd_breakers name b;
    b

let remote_router rd name =
  match Hashtbl.find_opt rd.rd_remote name with
  | Some r -> Ok r
  | None ->
    (match region_opt rd.rd_geo name with
     | None -> Error Errno.EHOSTUNREACH
     | Some prg ->
       (match World.connect ~src:rd.rd_src prg.rg_world ~credentials:rd.rd_creds with
        | Error _ ->
          metric rd.rd_geo "cluster.geo.connect.fail";
          Error Errno.EHOSTUNREACH
        | Ok r ->
          Hashtbl.replace rd.rd_remote name r;
          Ok r))

(* Cross-region calls ride a per-target breaker: during a partition the
   first few proxied reads time out, then fail fast until the WAN
   heals — a secondary never stalls its clients on a dead link. *)
let remote_call rd name f =
  let br = breaker_for rd name in
  if not (Breaker.allow br) then begin
    metric rd.rd_geo "cluster.geo.breaker.fastfail";
    Error Errno.EHOSTUNREACH
  end
  else
    match remote_router rd name with
    | Error e ->
      Breaker.failure ~errno:e br;
      Error e
    | Ok r -> (
      match f r with
      | Error e when transient e ->
        Breaker.failure ~errno:e br;
        Error e
      | res ->
        Breaker.success br;
        res)

let read rd f =
  let rg = rd.rd_region in
  let t = rd.rd_geo in
  if rg.rg_role = Primary then begin
    metric t "cluster.geo.read.local";
    f rd.rd_local
  end
  else if
    (not rg.rg_reconcile)
    && Int64.compare (staleness t rg) rd.rd_bound_ns <= 0
  then begin
    metric t "cluster.geo.read.local";
    f rd.rd_local
  end
  else
    match rd.rd_policy with
    | Stale ->
      metric t "cluster.geo.read.stale";
      Error Errno.ESTALE
    | Proxy ->
      metric t "cluster.geo.read.proxy";
      remote_call rd rg.rg_primary f

let write rd f =
  let rg = rd.rd_region in
  let t = rd.rd_geo in
  if rg.rg_role = Primary then begin
    metric t "cluster.geo.write.local";
    f rd.rd_local
  end
  else begin
    metric t "cluster.geo.write.forward";
    remote_call rd rg.rg_primary f
  end

let get rd path = read rd (fun r -> Router.get r path)
let stat rd path = read rd (fun r -> Router.stat r path)
let readdir rd path = read rd (fun r -> Router.readdir r path)
let getacl rd path = read rd (fun r -> Router.getacl r path)
let checksum rd path = read rd (fun r -> Router.checksum r path)
let whoami rd = read rd (fun r -> Router.whoami r)
let put rd ~path ~data = write rd (fun r -> Router.put r ~path ~data)
let mkdir rd path = write rd (fun r -> Router.mkdir r path)
let setacl rd ~path ~entry = write rd (fun r -> Router.setacl r ~path ~entry)
