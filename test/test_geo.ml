(* The geo-replication layer, functionally: WAL-segment shipping
   between two region worlds on one simulated network, idempotent
   re-delivery, bounded-staleness read policies, epoch-fenced
   promotion with the deterministic name tiebreak, and revocation
   epochs surviving failover.  The chaos-grade scenarios (partitions,
   two-run byte-identity, the single-region oracle) live in
   [Test_chaos]. *)

module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Server = Idbox_chirp.Server
module Wal = Idbox_chirp.Wal
module Protocol = Idbox_chirp.Protocol
module Principal = Idbox_identity.Principal
module World = Idbox_cluster.World
module Router = Idbox_cluster.Router
module Geo = Idbox_cluster.Geo
module Ring = Idbox_cluster.Ring
module Errno = Idbox_vfs.Errno

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let okr ctx = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" ctx m

(* Two regions, two members each, on one network under one clock.  The
   regions share a CA (one grid, two sites) but nothing else: separate
   catalogs, separate kernels, separate exports.  Host first labels are
   disjoint across regions so member names and export directories never
   collide. *)
let geo_pair ?ship_interval_ns ?batch_max ?seed
    ?(west_hosts = [ "wa.grid.edu"; "wb.grid.edu" ]) () =
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  (match seed with
  | Some seed -> Network.set_fault_plan net (Fault.plan ~seed ())
  | None -> ());
  let ca = Ca.create ~name:"Grid CA" in
  let mk region hosts =
    let w =
      World.create ~net ~ca
        ~catalog_addr:("catalog." ^ region ^ ".grid.edu:9097")
        ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L ()
    in
    List.iter
      (fun h ->
        match World.add_node w ~host:h with
        | Ok () -> ()
        | Error m -> Alcotest.fail m)
      hosts;
    World.settle w;
    w
  in
  let east = mk "east" [ "ea.grid.edu"; "eb.grid.edu" ] in
  let west = mk "west" west_hosts in
  let geo =
    Geo.link ?ship_interval_ns ?batch_max ~primary:"east" net
      [ ("east", east); ("west", west) ]
  in
  (* The link marks every peer stale; the first round runs the full
     reconcile that makes incremental shipping legal. *)
  Geo.ship_now geo;
  (clock, net, geo, east, west)

let counter net name = Metrics.counter_value_of (Network.metrics net) name

let reader geo ~region ~world ?policy ?bound_ns () =
  okr "geo connect"
    (Geo.connect geo ~region
       ~credentials:[ World.issue world "Alice" ]
       ?policy ?bound_ns ())

(* Content fingerprint of one region: every member's per-directory
   digest map, labelled — byte-comparable across regions because the
   digests exclude node-local bookkeeping. *)
let region_digests w =
  String.concat "\n"
    (List.map
       (fun m ->
         match Server.dir_digests (World.server w m) "/" with
         | Ok l ->
           String.concat ";"
             (List.map (fun (p, d) -> Printf.sprintf "%s=%s" p d) l)
         | Error e -> "error:" ^ Errno.to_string e)
       (World.members w))

(* --- shipping and bounded-staleness reads ---------------------------- *)

let ships_and_serves_local_reads () =
  let _clock, net, geo, east, west = geo_pair () in
  let e = reader geo ~region:"east" ~world:east () in
  let w = reader geo ~region:"west" ~world:west () in
  ok "mkdir" (Geo.mkdir e "/data");
  ok "put" (Geo.put e ~path:"/data/f" ~data:"v1");
  Geo.ship_now geo;
  Alcotest.(check string) "west reads the shipped value" "v1"
    (ok "get" (Geo.get w "/data/f"));
  Alcotest.(check bool) "west served locally" true
    (counter net "cluster.geo.read.local" > 0);
  Alcotest.(check int) "west caught the tip"
    (Geo.tip (Geo.region geo "east"))
    (Geo.applied_lsn (Geo.region geo "west"));
  (* The lease timestamp is set inside the segment handler; the reply
     transfer still charges simulated time, so "fresh" means well
     under the cadence, not literally zero. *)
  Alcotest.(check bool) "lease is fresh" true
    (Geo.staleness geo (Geo.region geo "west") < 10_000_000L);
  (* Writes from the secondary's reader forward to the primary and are
     visible there immediately. *)
  ok "forwarded put" (Geo.put w ~path:"/data/g" ~data:"from-west");
  Alcotest.(check string) "east sees the forwarded write" "from-west"
    (ok "get" (Geo.get e "/data/g"));
  Alcotest.(check bool) "forward counted" true
    (counter net "cluster.geo.write.forward" > 0);
  (* And the identity under which the write ran is the global one. *)
  Alcotest.(check string) "one global identity"
    (World.principal_of "Alice")
    (ok "whoami" (Geo.whoami w))

let stale_policy_answers_estale () =
  let clock, net, geo, east, west = geo_pair () in
  let e = reader geo ~region:"east" ~world:east () in
  let w =
    reader geo ~region:"west" ~world:west ~policy:Geo.Stale
      ~bound_ns:1_000_000_000L ()
  in
  ok "mkdir" (Geo.mkdir e "/data");
  Geo.ship_now geo;
  ignore (ok "in-bound read" (Geo.readdir w "/"));
  (* Let the lease lapse with no heartbeat: the bound is enforced. *)
  Clock.advance clock 5_000_000_000L;
  (match Geo.readdir w "/" with
  | Error Errno.ESTALE -> ()
  | Ok _ -> Alcotest.fail "out-of-bound read served locally"
  | Error e -> Alcotest.failf "expected ESTALE, got %s" (Errno.to_string e));
  Alcotest.(check bool) "stale verdicts counted" true
    (counter net "cluster.geo.read.stale" > 0);
  Alcotest.(check int64) "retry-after is the shipping cadence"
    (Geo.ship_interval_ns geo) (Geo.retry_after w);
  (* A heartbeat round refreshes the lease; local reads resume. *)
  Geo.ship_now geo;
  ignore (ok "read after refresh" (Geo.readdir w "/"))

let proxy_policy_reads_through () =
  let clock, net, geo, east, west = geo_pair () in
  let e = reader geo ~region:"east" ~world:east () in
  let w =
    reader geo ~region:"west" ~world:west ~policy:Geo.Proxy
      ~bound_ns:1_000_000_000L ()
  in
  ok "mkdir" (Geo.mkdir e "/data");
  ok "put" (Geo.put e ~path:"/data/f" ~data:"fresh");
  (* Do NOT ship: west is behind and its lease lapses. *)
  Clock.advance clock 5_000_000_000L;
  Alcotest.(check string) "out-of-bound read proxied to the primary"
    "fresh"
    (ok "get" (Geo.get w "/data/f"));
  Alcotest.(check bool) "proxy counted" true
    (counter net "cluster.geo.read.proxy" > 0)

(* --- segment re-delivery is a byte-identical no-op (satellite) ------- *)

let reshipped_segment_is_noop () =
  let seed =
    match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
    | Some s -> ( try Int64.of_string s with _ -> 7L)
    | None -> 7L
  in
  List.iter
    (fun seed ->
      let _clock, net, geo, east, west = geo_pair ~seed () in
      let e = reader geo ~region:"east" ~world:east () in
      ok "mkdir" (Geo.mkdir e "/data");
      for i = 1 to 5 do
        ok "put"
          (Geo.put e
             ~path:(Printf.sprintf "/data/f%d" i)
             ~data:(Printf.sprintf "v%d" i))
      done;
      Geo.ship_now geo;
      let applied = Geo.applied_lsn (Geo.region geo "west") in
      Alcotest.(check bool) "segment applied" true (applied > 0);
      let before = region_digests west in
      (* A link reset loses the ack: the primary re-ships everything
         from LSN 1.  The secondary must shrug — same digests, same
         applied LSN, duplicates skipped. *)
      Geo.rewind_ack geo ~primary:"east" ~peer:"west" ~to_lsn:0;
      let skips = counter net "cluster.geo.segment.skip" in
      Geo.ship_now geo;
      Alcotest.(check bool) "duplicates skipped" true
        (counter net "cluster.geo.segment.skip" > skips);
      Alcotest.(check int) "applied LSN unchanged" applied
        (Geo.applied_lsn (Geo.region geo "west"));
      Alcotest.(check string) "state byte-identical after re-delivery"
        before (region_digests west))
    [ seed; Int64.add seed 1L ]

(* The region log keeps a fixed window on both roles; a peer whose ack
   falls behind it is reconciled, not re-shipped, and ends where it
   was. *)
let log_bounded_rewind_past_window_reconciles () =
  let _clock, net, geo, east, west = geo_pair ~batch_max:2 () in
  let bound = Geo.log_retain geo in
  Alcotest.(check int) "window is 16 x batch_max" 32 bound;
  let e = reader geo ~region:"east" ~world:east () in
  ok "mkdir" (Geo.mkdir e "/data");
  for i = 1 to bound + 10 do
    ok "put"
      (Geo.put e ~path:(Printf.sprintf "/data/f%d" i) ~data:(string_of_int i));
    Geo.ship_now geo
  done;
  let east_rg = Geo.region geo "east" and west_rg = Geo.region geo "west" in
  Alcotest.(check bool) "log went past the window" true
    (Geo.tip east_rg > bound);
  Alcotest.(check int) "west caught the tip" (Geo.tip east_rg)
    (Geo.applied_lsn west_rg);
  Alcotest.(check int) "primary log holds the window" bound
    (Geo.log_length east_rg);
  Alcotest.(check int) "secondary log holds the window" bound
    (Geo.log_length west_rg);
  let before = region_digests west in
  let reconciles = counter net "cluster.geo.reconcile" in
  (* A reset past the window: the suffix from LSN 1 is gone, so the
     first round finds holes and the next one reconciles. *)
  Geo.rewind_ack geo ~primary:"east" ~peer:"west" ~to_lsn:0;
  Geo.ship_now geo;
  Geo.ship_now geo;
  Alcotest.(check int) "reconciled once" (reconciles + 1)
    (counter net "cluster.geo.reconcile");
  Alcotest.(check int) "west at the tip after reconcile" (Geo.tip east_rg)
    (Geo.applied_lsn west_rg);
  Alcotest.(check string) "state byte-identical after reconcile" before
    (region_digests west);
  (* Shipping resumes incrementally from the reconciled tip. *)
  ok "put after" (Geo.put e ~path:"/data/after" ~data:"x");
  Geo.ship_now geo;
  Alcotest.(check int) "incremental after reconcile" (Geo.tip east_rg)
    (Geo.applied_lsn west_rg);
  Alcotest.(check bool) "secondary log within the window" true
    (Geo.log_length west_rg <= bound)

let apply_shipped_dedups_by_req_id () =
  let _clock, _net, geo, _east, west = geo_pair () in
  ignore geo;
  let server = World.server west (List.hd (World.members west)) in
  let identity = Principal.of_string (World.principal_of "Alice") in
  let op = Protocol.Mkdir "/dup" in
  let ship () = Server.apply server (Server.Shipped "geo:9") ~identity op in
  let r1 = ship () in
  let r2 = ship () in
  (match (r1, r2) with
   | Server.Applied r1, Server.Replayed r2 ->
     Alcotest.(check string) "replayed response byte-identical"
       (Protocol.encode_response r1) r2
   | Server.Replayed _, _ -> Alcotest.fail "first apply is not fresh"
   | Server.Applied _, Server.Applied _ ->
     Alcotest.fail "second apply is not a replay");
  (* Server-side counters land in the region's own kernel registry. *)
  Alcotest.(check bool) "dedup hit counted" true
    (Metrics.counter_value_of
       (Idbox_kernel.Kernel.metrics (World.kernel west))
       "chirp.geo.dedup_hit"
    > 0)

let damaged_segment_rejected_whole () =
  let frame = Wal.frame_segment [ "alpha"; "beta" ] in
  (match Wal.parse_segment frame with
  | Ok [ "alpha"; "beta" ] -> ()
  | Ok _ -> Alcotest.fail "wrong payloads"
  | Error `Damaged -> Alcotest.fail "intact segment rejected");
  (* Flip one payload byte: the whole segment is refused — no partial
     apply, no LSN skew. *)
  let b = Bytes.of_string frame in
  Bytes.set b (Bytes.length b - 1) 'X';
  (match Wal.parse_segment (Bytes.to_string b) with
  | Error `Damaged -> ()
  | Ok _ -> Alcotest.fail "damaged segment accepted");
  (* Truncation mid-frame is damage too. *)
  match Wal.parse_segment (String.sub frame 0 (String.length frame - 3)) with
  | Error `Damaged -> ()
  | Ok _ -> Alcotest.fail "truncated segment accepted"

(* --- failover -------------------------------------------------------- *)

let promotion_fences_old_primary () =
  let _clock, net, geo, east, west = geo_pair () in
  let e = reader geo ~region:"east" ~world:east () in
  ok "mkdir" (Geo.mkdir e "/data");
  ok "put" (Geo.put e ~path:"/data/f" ~data:"acked-before-failover");
  Geo.ship_now geo;
  (* Operator failover: west takes over under a higher epoch. *)
  Geo.promote geo "west";
  Alcotest.(check bool) "west is primary" true
    (Geo.role (Geo.region geo "west") = Geo.Primary);
  Alcotest.(check int) "epoch bumped" 2 (Geo.epoch (Geo.region geo "west"));
  (* East still believes it is primary; its next shipping round runs
     into the fence and it demotes itself — no split-brain. *)
  Geo.ship_now geo;
  Alcotest.(check bool) "east demoted" true
    (Geo.role (Geo.region geo "east") = Geo.Secondary);
  Alcotest.(check int) "east adopted the epoch" 2
    (Geo.epoch (Geo.region geo "east"));
  Alcotest.(check bool) "fence counted" true
    (counter net "cluster.geo.fence.reject" > 0
    || counter net "cluster.geo.fence.adopt" > 0);
  (* The new primary reconciles the deposed one before resuming
     segments. *)
  Geo.ship_now geo;
  Geo.ship_now geo;
  Alcotest.(check bool) "east reconciled" false
    (Geo.needs_reconcile (Geo.region geo "east"));
  (* Every mutation acked before the failover survives it, on both
     sides. *)
  let w = reader geo ~region:"west" ~world:west () in
  Alcotest.(check string) "west serves the acked write"
    "acked-before-failover"
    (ok "get" (Geo.get w "/data/f"));
  let east_direct = okr "east router" (World.connect east ~credentials:[ World.issue east "Alice" ]) in
  Alcotest.(check string) "east still serves the acked write"
    "acked-before-failover"
    (ok "get" (Router.get east_direct "/data/f"));
  (* Writes through an east reader now forward to west. *)
  ok "post-failover write" (Geo.put e ~path:"/data/g" ~data:"to-west");
  Alcotest.(check string) "write landed on the new primary" "to-west"
    (ok "get" (Geo.get w "/data/g"))

let concurrent_promotion_breaks_tie_by_name () =
  let _clock, _net, geo, east, _west = geo_pair () in
  let e = reader geo ~region:"east" ~world:east () in
  ok "mkdir" (Geo.mkdir e "/data");
  Geo.ship_now geo;
  (* Both sides of a partition promoted at the same epoch: the
     deterministic name tiebreak (lexically greater region wins) picks
     exactly one survivor. *)
  Geo.promote geo "west";
  Alcotest.(check int) "west at epoch 2" 2 (Geo.epoch (Geo.region geo "west"));
  (* East re-promotes itself to the same epoch (it was demoted by
     nothing yet — simulate the concurrent operator action by fencing
     its knowledge at epoch 1). *)
  Alcotest.(check bool) "east still thinks primary" true
    (Geo.role (Geo.region geo "east") = Geo.Primary);
  Geo.ship_now geo;
  (* Shipping rounds collide; "west" > "east", so west survives. *)
  Alcotest.(check bool) "west survived" true
    (Geo.role (Geo.region geo "west") = Geo.Primary);
  Alcotest.(check bool) "east lost the tie" true
    (Geo.role (Geo.region geo "east") = Geo.Secondary)

let revocation_epochs_survive_failover () =
  let _clock, _net, geo, east, west = geo_pair () in
  let delegator = World.principal_of "Alice" in
  (* A revocation that only the old primary's region ever saw. *)
  ignore (Server.merge_epochs (World.server east "ea") [ (delegator, 7) ]);
  Geo.promote geo "west";
  (* West's reconcile of the deposed east max-merges revocation epochs
     FIRST — before any state moves — so the revocation is never
     resurrected by the failover. *)
  Geo.ship_now geo;
  Geo.ship_now geo;
  List.iter
    (fun m ->
      let entries = Server.epoch_entries (World.server west m) in
      Alcotest.(check bool)
        (Printf.sprintf "west %s learned the revocation" m)
        true
        (List.exists (fun (d, e) -> String.equal d delegator && e >= 7) entries))
    (World.members west)

(* --- partition plumbing ---------------------------------------------- *)

let wan_windows_cover_both_regions () =
  let _clock, _net, geo, _east, _west = geo_pair () in
  let eh = Geo.region_hosts geo "east" and wh = Geo.region_hosts geo "west" in
  Alcotest.(check bool) "east hosts include its catalog" true
    (List.mem "catalog.east.grid.edu" eh);
  Alcotest.(check bool) "east hosts include its members" true
    (List.mem "ea.grid.edu" eh && List.mem "eb.grid.edu" eh);
  Alcotest.(check bool) "east hosts include the geo endpoint" true
    (List.mem "geo.east.grid.edu" eh);
  let wins =
    Geo.wan_windows geo ~from_ns:0L ~until_ns:1L ~between:("east", "west")
  in
  Alcotest.(check int) "full cross-product of cuts"
    (List.length eh * List.length wh)
    (List.length wins)

(* A crashed member takes no replication traffic, and a record is never
   dropped for want of a live owner.  West's two members own every key
   (R = 2); with both down, east's mkdir is neither applied nor
   acknowledged.  After they restart, the next round ships it again and
   both hold it. *)
let geo_apply_waits_for_a_live_owner () =
  let _clock, _net, geo, east, west = geo_pair () in
  let e = reader geo ~region:"east" ~world:east () in
  let rw = Geo.region geo "west" and re = Geo.region geo "east" in
  let holds m =
    ok "snapshot" (Server.snapshot_subtree (World.server west m) "/k1") <> []
  in
  List.iter (World.crash west) (World.members west);
  ok "mkdir" (Geo.mkdir e "/k1");
  Geo.ship_now geo;
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " took nothing while down") false (holds m))
    (World.members west);
  Alcotest.(check bool) "not acknowledged" true
    (Geo.applied_lsn rw < Geo.tip re);
  List.iter (World.restart west) (World.members west);
  Geo.ship_now geo;
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " holds it after restart") true (holds m))
    (World.members west);
  Alcotest.(check int) "caught the tip" (Geo.tip re) (Geo.applied_lsn rw)

(* A record waits for its key's primary, not just for some live owner.
   The primary has seen every acknowledged write and its repair installs
   its copy exactly on the other owner, so a record applied on the other
   owner alone would be deleted by the primary's first repair after its
   restart.  West has three members here: [/k1] has one primary and one
   other owner, and the crash takes down only the primary. *)
let geo_apply_waits_for_the_primary () =
  let _clock, _net, geo, east, west =
    geo_pair ~west_hosts:[ "wa.grid.edu"; "wb.grid.edu"; "wc.grid.edu" ] ()
  in
  let e = reader geo ~region:"east" ~world:east () in
  let rw = Geo.region geo "west" and re = Geo.region geo "east" in
  ok "mkdir" (Geo.mkdir e "/k1");
  Geo.ship_now geo;
  let primary, other =
    match Ring.successors (Ring.create (World.members west)) "k1" 2 with
    | [ p; o ] -> (p, o)
    | _ -> Alcotest.fail "two owners"
  in
  let holds m =
    List.exists
      (function
        | Server.Snap_file { path; _ } -> String.equal path "/k1/f"
        | Server.Snap_dir _ -> false)
      (ok "snapshot" (Server.snapshot_subtree (World.server west m) "/k1"))
  in
  World.crash west primary;
  ok "put" (Geo.put e ~path:"/k1/f" ~data:"v");
  Geo.ship_now geo;
  Alcotest.(check bool) "the other owner took nothing without the primary"
    false (holds other);
  Alcotest.(check bool) "not acknowledged" true
    (Geo.applied_lsn rw < Geo.tip re);
  World.restart west primary;
  Geo.ship_now geo;
  World.repair_sweep west;
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " holds it after the repair") true (holds m))
    [ primary; other ];
  Alcotest.(check int) "caught the tip" (Geo.tip re) (Geo.applied_lsn rw)

let suite =
  [
    Alcotest.test_case "ships segments; secondary serves local reads" `Quick
      ships_and_serves_local_reads;
    Alcotest.test_case "stale policy answers ESTALE out of bound" `Quick
      stale_policy_answers_estale;
    Alcotest.test_case "proxy policy reads through to the primary" `Quick
      proxy_policy_reads_through;
    Alcotest.test_case "re-shipped segment is a byte-identical no-op" `Quick
      reshipped_segment_is_noop;
    Alcotest.test_case "log bounded; rewind past it reconciles" `Quick
      log_bounded_rewind_past_window_reconciles;
    Alcotest.test_case "apply_shipped dedups by req id" `Quick
      apply_shipped_dedups_by_req_id;
    Alcotest.test_case "damaged segment rejected whole" `Quick
      damaged_segment_rejected_whole;
    Alcotest.test_case "promotion fences the old primary" `Quick
      promotion_fences_old_primary;
    Alcotest.test_case "concurrent promotion: name tiebreak" `Quick
      concurrent_promotion_breaks_tie_by_name;
    Alcotest.test_case "revocation epochs survive failover" `Quick
      revocation_epochs_survive_failover;
    Alcotest.test_case "geo apply waits for a live owner" `Quick
      geo_apply_waits_for_a_live_owner;
    Alcotest.test_case "geo apply waits for the primary" `Quick
      geo_apply_waits_for_the_primary;
    Alcotest.test_case "wan windows cover both regions" `Quick
      wan_windows_cover_both_regions;
  ]
