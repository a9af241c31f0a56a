(* The cluster layer end to end: identity-aware routing over the
   consistent-hash ring, write-through-primary replication carrying the
   caller's principal, read failover, lease-driven ejection and
   re-admission, rebalance locality, the cluster-wide
   consistency-of-identity invariant, and one pin for each branch of
   the router's request path (breaker skip and forced probe, retry
   after sync, write-path breaker feed, identity mismatch, a slow but
   live primary, and a repair hint nobody waits for). *)

module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Ring = Idbox_cluster.Ring
module Replica = Idbox_cluster.Replica
module Shard = Idbox_cluster.Shard
module Router = Idbox_cluster.Router
module World = Idbox_cluster.World
module Errno = Idbox_vfs.Errno

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let contains ~sub s =
  let n = String.length sub in
  let rec find i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || find (i + 1))
  in
  find 0

let counter w name =
  Metrics.counter_value_of (Network.metrics (World.net w)) name

let three_node_world ?staleness_ns ?heartbeat_interval_ns () =
  let w = World.create ?staleness_ns ?heartbeat_interval_ns () in
  List.iter
    (fun h ->
      match World.add_node w ~host:h with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ];
  World.settle w;
  w

let connect_alice w =
  match World.connect w ~credentials:[ World.issue w "Alice" ] with
  | Ok r -> r
  | Error m -> Alcotest.fail m

(* One namespace over three servers: paths route by prefix, and each
   mutation lands on its shard's primary *and* replica — with the
   caller's own principal in the replica's ACL, so identity survives
   replication.  Non-owners hold nothing: the namespace really is
   sharded, not mirrored. *)
let routing_shards_and_replicates () =
  let w = three_node_world () in
  let r = connect_alice w in
  Alcotest.(check int) "all shards admitted" 3 (List.length (Router.nodes r));
  let dirs = List.init 6 (fun i -> Printf.sprintf "/d%d" i) in
  List.iter
    (fun d ->
      ok "mkdir" (Router.mkdir r d);
      ok "put" (Router.put r ~path:(d ^ "/f") ~data:("data" ^ d)))
    dirs;
  List.iter
    (fun d ->
      Alcotest.(check string) ("read " ^ d) ("data" ^ d)
        (ok "get" (Router.get r (d ^ "/f"))))
    dirs;
  (* More than one shard took primary traffic. *)
  let primaries =
    List.sort_uniq compare
      (List.map (fun d -> Option.get (Router.node_for r d)) dirs)
  in
  Alcotest.(check bool) "load spread over shards" true
    (List.length primaries > 1);
  (* Each dir exists exactly on its replica set, with Alice's name in
     the replicated ACL. *)
  let ring = Ring.create (World.members w) in
  List.iter
    (fun d ->
      let key = Shard.key d in
      let owners = Ring.successors ring key 2 in
      List.iter
        (fun name ->
          let snap =
            ok ("snapshot " ^ name)
              (Server.snapshot_subtree (World.server w name) d)
          in
          if List.mem name owners then begin
            Alcotest.(check bool) (d ^ " present on " ^ name) true
              (List.length snap >= 2);
            (match snap with
             | Server.Snap_dir { acl; _ } :: _ ->
               Alcotest.(check bool) "replicated ACL names the caller" true
                 (contains ~sub:"CN=Alice" acl)
             | _ -> Alcotest.fail "snapshot should lead with the directory")
          end
          else
            Alcotest.(check int) (d ^ " absent on non-owner " ^ name) 0
              (List.length snap))
        (World.members w))
    dirs;
  Alcotest.(check bool) "replication fan-out counted" true
    (counter w "cluster.replicate" > 0);
  Alcotest.(check bool) "routing counted" true (counter w "cluster.route" > 0)

(* Crash a shard's primary: reads fail over to the replica and still
   answer; the failover is counted. *)
let reads_fail_over_on_crash () =
  let w = three_node_world () in
  let r = connect_alice w in
  ok "mkdir" (Router.mkdir r "/data");
  ok "put" (Router.put r ~path:"/data/f" ~data:"precious");
  let victim = Option.get (Router.node_for r "/data") in
  World.crash w victim;
  Alcotest.(check string) "read survives primary crash" "precious"
    (ok "get" (Router.get r "/data/f"));
  Alcotest.(check bool) "failover counted" true (Router.failovers r > 0);
  Alcotest.(check bool) "failover metric" true (counter w "cluster.failover" > 0)

(* A shard that does not trust the CA: it falls back to the hostname
   credential and negotiates a different principal. *)
let hostname_only =
  Negotiate.acceptor
    ~host_ok:(fun h -> Idbox_identity.Wildcard.literal_matches "*.grid.edu" h)
    ()

(* The paper's consistency-of-identity invariant, cluster-wide: if one
   shard negotiates a different principal for the same credentials, the
   router refuses service rather than act under two names. *)
let identity_mismatch_refused () =
  let w = World.create () in
  (match World.add_node w ~host:"alpha.grid.edu" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (match World.add_node ~acceptor:hostname_only w ~host:"beta.grid.edu" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  World.settle w;
  match
    World.connect w
      ~credentials:[ World.issue w "Alice"; Credential.Host "visitor.grid.edu" ]
  with
  | Ok _ -> Alcotest.fail "router proceeded with two principals"
  | Error m ->
    Alcotest.(check bool) "explains the refusal" true
      (contains ~sub:"identity differs" m);
    Alcotest.(check bool) "mismatch counted" true
      (counter w "cluster.identity.mismatch" > 0)

(* A node whose lease goes stale is ejected; its first heartbeat after
   restart re-admits it.  Reads keep working throughout. *)
let ejection_and_readmission () =
  let w =
    three_node_world ~staleness_ns:8_000_000_000L
      ~heartbeat_interval_ns:2_000_000_000L ()
  in
  let r = connect_alice w in
  ok "mkdir" (Router.mkdir r "/keep");
  ok "put" (Router.put r ~path:"/keep/f" ~data:"v1");
  let victim = Option.get (Router.node_for r "/keep") in
  World.crash w victim;
  Clock.advance (World.clock w) 10_000_000_000L;
  World.tick w;
  Router.sync r;
  Alcotest.(check int) "ejected" 2 (List.length (Router.nodes r));
  Alcotest.(check bool) "leave counted" true (counter w "cluster.member.leave" > 0);
  Alcotest.(check string) "read after ejection" "v1"
    (ok "get" (Router.get r "/keep/f"));
  World.restart w victim;
  Clock.advance (World.clock w) 2_000_000_000L;
  World.tick w;
  Router.sync r;
  Alcotest.(check int) "re-admitted" 3 (List.length (Router.nodes r));
  Alcotest.(check string) "read after re-admission" "v1"
    (ok "get" (Router.get r "/keep/f"))

(* Rebalance locality: a join migrates exactly the ranges the new ring
   assigns to the newcomer (plus its root-ACL sync) and nothing else —
   prefixes it did not gain never appear on it. *)
let join_migrates_only_affected_ranges () =
  let w = three_node_world () in
  let r = connect_alice w in
  let dirs = List.init 6 (fun i -> Printf.sprintf "/d%d" i) in
  List.iter
    (fun d ->
      ok "mkdir" (Router.mkdir r d);
      ok "put" (Router.put r ~path:(d ^ "/f") ~data:("data" ^ d)))
    dirs;
  let before = Ring.create (World.members w) in
  (match World.add_node w ~host:"delta.grid.edu" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  World.settle w;
  Router.sync r;
  let after = Ring.create (World.members w) in
  Alcotest.(check int) "four members" 4 (List.length (Router.nodes r));
  (* Exactly the gained (prefix, node) pairs migrate, plus one root-ACL
     sync to the newcomer. *)
  let gained_total =
    List.fold_left
      (fun acc d ->
        let key = Shard.key d in
        let old_owners = Ring.successors before key 2 in
        let new_owners = Ring.successors after key 2 in
        acc
        + List.length
            (List.filter (fun n -> not (List.mem n old_owners)) new_owners))
      0 dirs
  in
  Alcotest.(check int) "migrations = gained ranges + root sync"
    (gained_total + 1) (counter w "cluster.migrate");
  Alcotest.(check int) "no range lost" 0 (counter w "cluster.migrate.lost");
  (* Data is where the new ring says, readable through the router... *)
  List.iter
    (fun d ->
      Alcotest.(check string) ("read " ^ d) ("data" ^ d)
        (ok "get" (Router.get r (d ^ "/f"))))
    dirs;
  (* ...and the newcomer holds exactly what it gained. *)
  List.iter
    (fun d ->
      let key = Shard.key d in
      let new_owners = Ring.successors after key 2 in
      let snap =
        ok "snapshot delta" (Server.snapshot_subtree (World.server w "delta") d)
      in
      if List.mem "delta" new_owners then
        Alcotest.(check bool) (d ^ " migrated to delta") true
          (List.length snap >= 2)
      else
        Alcotest.(check int) (d ^ " not migrated to delta") 0
          (List.length snap))
    dirs

(* ACL semantics are one and the same on every shard: a read-only
   visitor is denied writes wherever they land, and cross-shard renames
   answer EXDEV rather than silently copying. *)
let acl_and_exdev_semantics () =
  let w = three_node_world () in
  let alice = connect_alice w in
  ok "mkdir" (Router.mkdir alice "/pub");
  let visitor =
    match
      World.connect w ~credentials:[ Credential.Host "visitor.grid.edu" ]
    with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "visitor principal" "hostname:visitor.grid.edu"
    (Router.principal visitor);
  (match Router.put visitor ~path:"/pub/evil" ~data:"x" with
   | Error Errno.EACCES -> ()
   | Ok () -> Alcotest.fail "read-only visitor wrote through the router"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  ignore (ok "visitor readdir" (Router.readdir visitor "/"));
  (* Renames: same shard fine, cross-shard EXDEV. *)
  ok "put" (Router.put alice ~path:"/pub/a" ~data:"v");
  ok "rename same shard" (Router.rename alice ~src:"/pub/a" ~dst:"/pub/b");
  (match Router.rename alice ~src:"/pub/b" ~dst:"/elsewhere/b" with
   | Error Errno.EXDEV -> ()
   | Ok () -> Alcotest.fail "cross-shard rename succeeded"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  Alcotest.(check bool) "exdev counted" true (counter w "cluster.exdev" > 0)

(* Regression: revocation gossip runs on every sweep tick, not only
   when the sweeping node has divergent data.  A node with an *empty*
   revocation store (it missed the Revoke entirely) must still pull its
   peers' epochs — gossip is bidirectional, so even a node with nothing
   to say learns something from the replies. *)
let gossip_runs_on_empty_sweep () =
  let w = three_node_world () in
  let delegator = World.principal_of "Bob" in
  (* Only alpha ever heard the revocation. *)
  ignore (Server.merge_epochs (World.server w "alpha") [ (delegator, 3) ]);
  Alcotest.(check (list (pair string int)))
    "beta starts empty" []
    (Server.epoch_entries (World.server w "beta"));
  (* Beta's sweep has no data divergence to repair and no local epochs
     to push — with the old guard it would skip gossip entirely and
     never converge. *)
  Idbox_cluster.Repair.sweep (World.repair w "beta");
  Alcotest.(check bool) "beta pulled the epoch from its peers" true
    (List.exists
       (fun (d, e) -> String.equal d delegator && e >= 3)
       (Server.epoch_entries (World.server w "beta")))

(* Regression: the router's read-repair hint path is bounded and
   deduped — a flapping link re-triggering hints for the same key (or
   a scan touching many keys) cannot grow the primaries' pending sets
   without limit. *)
let read_repair_hints_bounded_and_deduped () =
  let w = three_node_world () in
  let alice = connect_alice w in
  ok "mkdir" (Router.mkdir alice "/d0");
  let sent () = counter w "cluster.read_repair.hint" in
  let dropped () = counter w "cluster.repair.hint_dropped" in
  (* Same key, hammered: exactly one hint goes out. *)
  for _ = 1 to 5 do
    Router.read_repair_hint alice "d0"
  done;
  Alcotest.(check int) "one hint for one key" 1 (sent ());
  Alcotest.(check int) "duplicates dropped" 4 (dropped ());
  (* Many distinct keys: the in-flight set is capped. *)
  for i = 0 to 39 do
    Router.read_repair_hint alice (Printf.sprintf "k%d" i)
  done;
  Alcotest.(check bool) "in-flight hints capped" true (sent () <= 17);
  Alcotest.(check bool) "overflow counted" true (dropped () > 4)

(* {1 The router's request path, branch by branch} *)

let addr_of name = name ^ ".grid.edu:9094"

(* A shard key's owners, primary first, as the router's ring sees them. *)
let owners_of w key =
  Ring.successors (Ring.create (World.members w)) key (World.replicas w)

let calls w name =
  match Network.stats (World.net w) ~addr:(addr_of name) with
  | Some st -> st.Network.calls
  | None -> 0

let expect_errno ctx want = function
  | Error e when e = want -> ()
  | Error e ->
    Alcotest.failf "%s: want %s, got %s" ctx (Errno.to_string want)
      (Errno.to_string e)
  | Ok _ -> Alcotest.failf "%s: want %s, got an answer" ctx (Errno.to_string want)

(* Every owner's breaker open: the sweep skips both, then forces exactly
   one request at the primary and returns that request's verdict — a
   breaker may reorder who pays the timeouts, never brick a key.  One
   attempt per client call keeps the clock still, so the breakers stay
   inside their reset window. *)
let forced_probe_when_every_breaker_open () =
  let w = three_node_world () in
  let r =
    match
      World.connect w
        ~policy:{ Client.default_policy with Client.max_attempts = 1 }
        ~credentials:[ World.issue w "Alice" ]
    with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  ok "mkdir" (Router.mkdir r "/f0");
  ok "put" (Router.put r ~path:"/f0/x" ~data:"forced");
  let primary, secondary =
    match owners_of w "f0" with
    | [ p; s ] -> (p, s)
    | _ -> Alcotest.fail "two owners"
  in
  List.iter
    (fun n -> Network.crash (World.net w) ~addr:(addr_of n))
    [ primary; secondary ];
  (* Each read feeds each owner two failures (the sweep, then the
     sweep after sync): the second read trips both breakers. *)
  for _ = 1 to 2 do
    expect_errno "read with both owners down" Errno.ECONNREFUSED
      (Router.get r "/f0/x")
  done;
  Alcotest.(check int) "both breakers open" 2 (counter w "cluster.breaker.open");
  Network.restart (World.net w) ~addr:(addr_of primary);
  let forced0 = counter w "cluster.breaker.forced" in
  let skips0 = counter w "cluster.breaker.skip" in
  let p0 = calls w primary and s0 = calls w secondary in
  Alcotest.(check string) "the forced request's verdict" "forced"
    (ok "get" (Router.get r "/f0/x"));
  Alcotest.(check int) "one forced request" (forced0 + 1)
    (counter w "cluster.breaker.forced");
  Alcotest.(check int) "both owners skipped first" (skips0 + 2)
    (counter w "cluster.breaker.skip");
  Alcotest.(check int) "it went to the primary" (p0 + 1) (calls w primary);
  Alcotest.(check int) "nothing reached the secondary" s0 (calls w secondary)

(* Every owner unreachable: the sweep fails over, finds nobody, re-reads
   the catalog once and sweeps again, then surfaces the transport
   errno. *)
let every_owner_unreachable () =
  let w = three_node_world () in
  let r = connect_alice w in
  ok "mkdir" (Router.mkdir r "/u0");
  ok "put" (Router.put r ~path:"/u0/x" ~data:"v");
  List.iter (World.crash w) (owners_of w "u0");
  let retries0 = counter w "cluster.route.retry" in
  expect_errno "read with every owner crashed" Errno.ECONNREFUSED
    (Router.get r "/u0/x");
  Alcotest.(check int) "one retry after sync" (retries0 + 1)
    (counter w "cluster.route.retry")

(* A write to an unreachable primary retries once after sync, fails with
   the transport errno, and feeds the primary's breaker: the read that
   follows adds one failure of its own and trips it. *)
let write_to_unreachable_primary () =
  let w = three_node_world () in
  let r = connect_alice w in
  ok "mkdir" (Router.mkdir r "/w0");
  ok "put" (Router.put r ~path:"/w0/x" ~data:"kept");
  let primary = List.hd (owners_of w "w0") in
  World.crash w primary;
  let retries0 = counter w "cluster.route.retry" in
  expect_errno "write to a crashed primary" Errno.ECONNREFUSED
    (Router.put r ~path:"/w0/y" ~data:"lost");
  Alcotest.(check int) "one retry after sync" (retries0 + 1)
    (counter w "cluster.route.retry");
  Alcotest.(check int) "breaker still closed" 0 (counter w "cluster.breaker.open");
  Alcotest.(check string) "read fails over to the replica" "kept"
    (ok "get" (Router.get r "/w0/x"));
  Alcotest.(check int) "the write's failures counted toward the trip" 1
    (counter w "cluster.breaker.open")

(* A member that joins after connect and negotiates a different
   principal for the router's credentials is refused call by call:
   reads and writes routed to it answer EPERM, the mismatch is counted,
   and — the node being up — its breaker never opens. *)
let mismatch_on_member_added_after_connect () =
  let w = World.create () in
  List.iter
    (fun h ->
      match World.add_node w ~host:h with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ "alpha.grid.edu"; "gamma.grid.edu" ];
  World.settle w;
  let r =
    match
      World.connect w
        ~credentials:[ World.issue w "Alice"; Credential.Host "visitor.grid.edu" ]
    with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  (match World.add_node ~acceptor:hostname_only w ~host:"beta.grid.edu" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  World.settle w;
  Router.sync r;
  Alcotest.(check int) "beta joined the ring" 3 (List.length (Router.nodes r));
  let dir =
    List.find
      (fun d -> Router.node_for r d = Some "beta")
      (List.init 64 (Printf.sprintf "/m%d"))
  in
  let mismatches0 = counter w "cluster.identity.mismatch" in
  for _ = 1 to 4 do
    expect_errno "read routed to beta" Errno.EPERM (Router.get r (dir ^ "/f"));
    expect_errno "write routed to beta" Errno.EPERM (Router.mkdir r dir)
  done;
  Alcotest.(check bool) "mismatch counted" true
    (counter w "cluster.identity.mismatch" > mismatches0);
  Alcotest.(check int) "beta's breaker never opened" 0
    (counter w "cluster.breaker.open")

(* A primary whose traffic is delayed, never dropped, is slow but live:
   the read waits for it, with no failover and no repair hint. *)
let delayed_primary_still_answers () =
  List.iter
    (fun seed ->
      let w = three_node_world () in
      let r = connect_alice w in
      ok "mkdir" (Router.mkdir r "/h");
      ok "put" (Router.put r ~path:"/h/hot" ~data:"payload");
      Network.pump (World.net w);
      let primary = Option.get (Router.node_for r "/h/hot") in
      Network.set_fault_plan (World.net w)
        (Fault.plan ~seed:(Int64.of_int seed)
           ~per_endpoint:
             [
               ( addr_of primary,
                 Fault.profile ~jitter:1.0 ~max_jitter_ns:50_000_000L () );
             ]
           ());
      let failovers0 = counter w "cluster.failover" in
      let hints0 = counter w "cluster.read_repair.hint" in
      let ctx what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check string) (ctx "delayed read answers") "payload"
        (ok "get" (Router.get r "/h/hot"));
      Alcotest.(check bool) (ctx "delay injected") true
        (counter w "net.jitter" > 0);
      Alcotest.(check int) (ctx "no failover") failovers0
        (counter w "cluster.failover");
      Alcotest.(check int) (ctx "no hint") hints0
        (counter w "cluster.read_repair.hint");
      Network.clear_fault_plan (World.net w);
      Alcotest.(check string) (ctx "later read") "payload"
        (ok "get2" (Router.get r "/h/hot")))
    [ 3; 11; 27 ]

(* Regression: a read that fails over sends its repair hint to the
   key's primary — the node it just failed to reach — and must not wait
   for that hint to time out.  Waiting outlasted the breaker's reset
   window on every read, so the breaker never short-circuited and every
   read paid the primary's timeouts again.  With the hint sent and not
   awaited, the breaker trips on the third read and the fourth and
   fifth go straight to the replica. *)
let failover_read_does_not_wait_for_hint () =
  let w = three_node_world () in
  let r = connect_alice w in
  ok "mkdir" (Router.mkdir r "/far");
  ok "put" (Router.put r ~path:"/far/f" ~data:"v");
  let primary = Option.get (Router.node_for r "/far") in
  let clock = World.clock w in
  let now = Clock.now clock in
  Network.set_fault_plan (World.net w)
    (Fault.plan
       ~partitions:
         [
           Fault.window ~from_ns:now
             ~until_ns:(Int64.add now 3_600_000_000_000L)
             ~between:("client", primary ^ ".grid.edu");
         ]
       ());
  let elapsed =
    List.init 5 (fun i ->
        let t0 = Clock.now clock in
        Alcotest.(check string)
          (Printf.sprintf "read %d served by the replica" (i + 1))
          "v"
          (ok "get" (Router.get r "/far/f"));
        Int64.sub (Clock.now clock) t0)
  in
  List.iteri
    (fun i ns ->
      if i >= 3 then
        Alcotest.(check bool)
          (Printf.sprintf "read %d under 1 ms (took %Ld ns)" (i + 1) ns)
          true
          (Int64.compare ns 1_000_000L < 0))
    elapsed;
  Alcotest.(check bool) "the breaker short-circuits the primary" true
    (counter w "cluster.breaker.skip" > 0)

(* A crashed member takes no replication traffic: [World.crash] takes
   its replication endpoint down with its Chirp endpoint, so the
   primary's forward to it fails and leaves the key pending repair,
   instead of landing in a server that is down.  After the restart a
   repair sweep brings it the key. *)
let crashed_member_takes_no_forwards () =
  let w = three_node_world () in
  let r = connect_alice w in
  let secondary =
    match owners_of w "k1" with [ _; s ] -> s | _ -> Alcotest.fail "two owners"
  in
  World.crash w secondary;
  let holds () =
    ok "snapshot" (Server.snapshot_subtree (World.server w secondary) "/k1")
    <> []
  in
  let sent = counter w "cluster.replicate" in
  let failed = counter w "cluster.replica.fail" in
  ok "mkdir" (Router.mkdir r "/k1");
  Alcotest.(check int) "one forward" (sent + 1) (counter w "cluster.replicate");
  Alcotest.(check int) "it failed" (failed + 1)
    (counter w "cluster.replica.fail");
  Alcotest.(check bool) "the crashed member took nothing" false (holds ());
  World.restart w secondary;
  World.repair_sweep w;
  Alcotest.(check bool) "repaired after the restart" true (holds ())

(* A repair names a shard key.  [""] would name the whole export, and an
   exact install there would delete every other shard on the member. *)
let repair_names_a_shard_key () =
  let w = three_node_world () in
  let r = connect_alice w in
  ok "mkdir" (Router.mkdir r "/data");
  let owner = Option.get (Router.node_for r "/data") in
  (match
     Network.call (World.net w)
       ~addr:(Replica.repl_addr (addr_of owner))
       (Idbox_chirp.Wire.encode [ "repair"; "" ])
   with
   | Ok reply ->
     Alcotest.(check (result (list string) string)) "refused"
       (Ok [ "error"; "EINVAL" ]) (Idbox_chirp.Wire.decode reply)
   | Error e -> Alcotest.fail (Errno.to_string e));
  Alcotest.(check bool) "the owner's shard survives" true
    (ok "snapshot" (Server.snapshot_subtree (World.server w owner) "/data")
    <> [])

(* A ring change gives joining members the root, last, copied from its
   old owners; from an empty ring there is no old owner to copy from,
   so there is no root move (and no lost migration to count). *)
let moves_copy_the_root_from_old_owners () =
  let moves before after =
    Shard.moves ~before:(Ring.create before) ~after:(Ring.create after) []
  in
  Alcotest.(check (list (triple string (list string) (list string))))
    "beta joins alpha" [ ("/", [ "alpha" ], [ "beta" ]) ]
    (moves [ "alpha" ] [ "alpha"; "beta" ]);
  Alcotest.(check (list (triple string (list string) (list string))))
    "nothing to copy from an empty ring" [] (moves [] [ "alpha"; "beta" ])

let suite =
  [
    Alcotest.test_case "routing shards and replicates with identity" `Quick
      routing_shards_and_replicates;
    Alcotest.test_case "reads fail over on crash" `Quick reads_fail_over_on_crash;
    Alcotest.test_case "identity mismatch across shards refused" `Quick
      identity_mismatch_refused;
    Alcotest.test_case "lease ejection and re-admission" `Quick
      ejection_and_readmission;
    Alcotest.test_case "join migrates only affected ranges" `Quick
      join_migrates_only_affected_ranges;
    Alcotest.test_case "one ACL semantics everywhere + EXDEV" `Quick
      acl_and_exdev_semantics;
    Alcotest.test_case "gossip runs on every sweep tick" `Quick
      gossip_runs_on_empty_sweep;
    Alcotest.test_case "read-repair hints bounded and deduped" `Quick
      read_repair_hints_bounded_and_deduped;
    Alcotest.test_case "every breaker open: one forced probe" `Quick
      forced_probe_when_every_breaker_open;
    Alcotest.test_case "every owner unreachable: one retry" `Quick
      every_owner_unreachable;
    Alcotest.test_case "write to unreachable primary feeds its breaker"
      `Quick write_to_unreachable_primary;
    Alcotest.test_case "mismatch on a later member: EPERM, no trip" `Quick
      mismatch_on_member_added_after_connect;
    Alcotest.test_case "delayed primary answers, no failover" `Quick
      delayed_primary_still_answers;
    Alcotest.test_case "failover read does not wait for its hint" `Quick
      failover_read_does_not_wait_for_hint;
    Alcotest.test_case "crashed member takes no forwards" `Quick
      crashed_member_takes_no_forwards;
    Alcotest.test_case "a repair names a shard key" `Quick
      repair_names_a_shard_key;
    Alcotest.test_case "moves copy the root from old owners" `Quick
      moves_copy_the_root_from_old_owners;
  ]
