(* The benchmark harness: regenerate every table and figure of the
   paper, then the post-paper blocks (resilience, cluster, recovery,
   sessions, elastic, geo, metrics).

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig5b      # one figure
     dune exec bench/main.exe -- --full  # full-size Fig. 5(b) runs
     dune exec bench/main.exe cluster    # cluster scaling block only
     dune exec bench/main.exe -- --json  # deterministic JSON report

   Every figure here is on the simulated clock and deterministic; host
   time per layer is measured by perfbench (perfbench/DESIGN.md). *)

(* The nearest-rank [p] percentile of [samples], which it sorts in
   place: every block's p50 and p95. *)
let pct samples p =
  Array.sort compare samples;
  let n = Array.length samples in
  samples.(min (n - 1) (int_of_float (float_of_int n *. p)))

(* Retry overhead under packet loss: the same Chirp read workload at
   0%, 1% and 10% drop rates, reporting simulated per-call latency
   percentiles and the retries spent.  Deterministic (seeded faults,
   simulated clock), so these figures are exact, not sampled. *)
type resilience_row = {
  rr_drop : float;
  rr_p50_ms : float;
  rr_p95_ms : float;
  rr_retries : int;
  rr_drops : int;
}

let resilience_rows () =
  let module Kernel = Idbox_kernel.Kernel in
  let module Account = Idbox_kernel.Account in
  let module Clock = Idbox_kernel.Clock in
  let module Metrics = Idbox_kernel.Metrics in
  let module Network = Idbox_net.Network in
  let module Fault = Idbox_net.Fault in
  let module Ca = Idbox_auth.Ca in
  let module Credential = Idbox_auth.Credential in
  let module Negotiate = Idbox_auth.Negotiate in
  let module Server = Idbox_chirp.Server in
  let module Client = Idbox_chirp.Client in
  let module Subject = Idbox_identity.Subject in
  let calls = 400 in
  let run drop =
    let clock = Clock.create () in
    let kernel = Kernel.create ~clock () in
    let net = Network.create ~clock () in
    let owner =
      match Account.add (Kernel.accounts kernel) "chirpuser" with
      | Ok e -> e
      | Error m -> failwith m
    in
    Kernel.refresh_passwd kernel;
    let ca = Ca.create ~name:"Bench CA" in
    let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
    let root_acl =
      Idbox_acl.Acl.of_entries
        [
          Idbox_acl.Entry.make ~pattern:"globus:/O=Bench/*"
            (Idbox_acl.Rights.of_string_exn "rwl");
        ]
    in
    (match
       Server.create ~kernel ~net ~addr:"bench.grid.edu:9094"
         ~owner_uid:owner.Account.uid ~export:"/tmp/bench" ~acceptor ~root_acl ()
     with
    | Ok _ -> ()
    | Error e -> failwith (Idbox_vfs.Errno.message e));
    Network.set_fault_plan net
      (Fault.plan ~seed:1L ~default_profile:(Fault.profile ~drop ()) ());
    let cert = Ca.issue ca (Subject.of_string_exn "/O=Bench/CN=Reader") in
    let policy =
      { Client.default_policy with max_attempts = 12; retry_budget = 100_000 }
    in
    let c =
      match
        Client.connect ~policy net ~addr:"bench.grid.edu:9094"
          ~credentials:[ Credential.Gsi cert ]
      with
      | Ok c -> c
      | Error m -> failwith m
    in
    (match Client.put c ~path:"/blob" ~data:(String.make 1024 'b') with
     | Ok () -> ()
     | Error e -> failwith (Idbox_vfs.Errno.message e));
    let latencies =
      Array.init calls (fun _ ->
          let t0 = Clock.now clock in
          (match Client.get c "/blob" with
           | Ok _ -> ()
           | Error e -> failwith (Idbox_vfs.Errno.message e));
          Int64.to_float (Int64.sub (Clock.now clock) t0))
    in
    let drops = Metrics.counter_value_of (Network.metrics net) "net.drop" in
    {
      rr_drop = drop;
      rr_p50_ms = pct latencies 0.50 /. 1e6;
      rr_p95_ms = pct latencies 0.95 /. 1e6;
      rr_retries = Client.retries c;
      rr_drops = drops;
    }
  in
  List.map run [ 0.0; 0.01; 0.10 ]

let resilience_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline "Resilience - Chirp retry overhead vs. network drop rate";
  print_endline (String.make 78 '=');
  Printf.printf "%7s %14s %14s %9s %9s\n" "drop" "p50 (ms)" "p95 (ms)"
    "retries" "drops";
  print_endline (String.make 58 '-');
  List.iter
    (fun r ->
      Printf.printf "%6.0f%% %14.3f %14.3f %9d %9d\n" (r.rr_drop *. 100.)
        r.rr_p50_ms r.rr_p95_ms r.rr_retries r.rr_drops)
    (resilience_rows ())

(* Cluster scaling: the same read-heavy workload against 1, 3 and 9
   sharded+replicated Chirp servers behind the identity-aware router,
   calm and at 10% drop.  Aggregate throughput is a capacity figure:
   total operations divided by the busiest node's service time (the
   makespan bottleneck) — sharding divides the bottleneck, so N=3 must
   clear 2x the single-server figure (the acceptance criterion).
   Deterministic: simulated clock, seeded faults, MD5 ring. *)
type cluster_row = {
  cr_nodes : int;
  cr_drop : float;
  cr_ops : int;
  cr_p50_ms : float;
  cr_p95_ms : float;
  cr_tput_kops : float;  (* kops per second of bottleneck busy time *)
  cr_speedup : float;  (* vs the 1-node run at the same drop rate *)
  cr_failovers : int;
  cr_drops : int;
}

let cluster_run ~nodes ~drop =
  let module Clock = Idbox_kernel.Clock in
  let module Metrics = Idbox_kernel.Metrics in
  let module Network = Idbox_net.Network in
  let module Fault = Idbox_net.Fault in
  let module Client = Idbox_chirp.Client in
  let module World = Idbox_cluster.World in
  let module Router = Idbox_cluster.Router in
  let okv ctx = function
    | Ok v -> v
    | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
  in
  let w = World.create () in
  let hosts = List.init nodes (fun i -> Printf.sprintf "n%d.grid.edu" (i + 1)) in
  List.iter
    (fun h ->
      match World.add_node w ~host:h with
      | Ok () -> ()
      | Error m -> failwith m)
    hosts;
  World.settle w;
  let policy =
    { Client.default_policy with max_attempts = 12; retry_budget = 1_000_000 }
  in
  let r =
    match World.connect ~policy w ~credentials:[ World.issue w "Bench" ] with
    | Ok r -> r
    | Error m -> failwith m
  in
  (* Populate on a calm network; measure under fire. *)
  let dirs = List.init 24 (fun i -> Printf.sprintf "/d%02d" i) in
  List.iter
    (fun d ->
      okv "mkdir" (Router.mkdir r d);
      okv "put" (Router.put r ~path:(d ^ "/blob") ~data:(String.make 1024 'x')))
    dirs;
  let net = World.net w in
  let clock = World.clock w in
  let busy_of h =
    Int64.add
      (Network.busy_ns net ~addr:(h ^ ":9094"))
      (Network.busy_ns net ~addr:(h ^ ":9094#repl"))
  in
  let base = List.map busy_of hosts in
  let drops0 = Metrics.counter_value_of (Network.metrics net) "net.drop" in
  Network.set_fault_plan net
    (Fault.plan ~seed:7L ~default_profile:(Fault.profile ~drop ()) ());
  let ops = 480 in
  let latencies =
    Array.init ops (fun i ->
        let d = List.nth dirs (i mod 24) in
        let t0 = Clock.now clock in
        (if i mod 10 = 5 then
           okv "put" (Router.put r ~path:(d ^ "/blob")
                        ~data:(Printf.sprintf "%04d%s" i (String.make 1020 'y')))
         else ignore (okv "get" (Router.get r (d ^ "/blob"))));
        Int64.to_float (Int64.sub (Clock.now clock) t0))
  in
  let bottleneck =
    List.fold_left2
      (fun acc h b -> max acc (Int64.to_float (Int64.sub (busy_of h) b)))
      0. hosts base
  in
  let drops =
    Metrics.counter_value_of (Network.metrics net) "net.drop" - drops0
  in
  {
    cr_nodes = nodes;
    cr_drop = drop;
    cr_ops = ops;
    cr_p50_ms = pct latencies 0.50 /. 1e6;
    cr_p95_ms = pct latencies 0.95 /. 1e6;
    cr_tput_kops = float_of_int ops /. (bottleneck /. 1e9) /. 1e3;
    cr_speedup = 1.0;
    cr_failovers = Router.failovers r;
    cr_drops = drops;
  }

let cluster_rows () =
  let raw =
    List.concat_map
      (fun drop -> List.map (fun n -> cluster_run ~nodes:n ~drop) [ 1; 3; 9 ])
      [ 0.0; 0.10 ]
  in
  List.map
    (fun row ->
      let base =
        List.find (fun r -> r.cr_nodes = 1 && r.cr_drop = row.cr_drop) raw
      in
      { row with cr_speedup = row.cr_tput_kops /. base.cr_tput_kops })
    raw

let cluster_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline
    "Cluster - aggregate throughput vs. shard count (read-heavy, R=2)";
  print_endline (String.make 78 '=');
  Printf.printf "%5s %6s %10s %10s %12s %8s %9s %7s\n" "nodes" "drop"
    "p50 (ms)" "p95 (ms)" "kops/s" "speedup" "failover" "drops";
  print_endline (String.make 74 '-');
  List.iter
    (fun r ->
      Printf.printf "%5d %5.0f%% %10.3f %10.3f %12.1f %7.2fx %9d %7d\n"
        r.cr_nodes (r.cr_drop *. 100.) r.cr_p50_ms r.cr_p95_ms r.cr_tput_kops
        r.cr_speedup r.cr_failovers r.cr_drops)
    (cluster_rows ())

(* Recovery: crash-restart MTTR as a function of WAL length (with and
   without a checkpoint right before the crash), and anti-entropy
   repair convergence as a function of how far a partitioned replica
   drifted.  Both figures run on the simulated clock with seeded
   faults, so they are exact and byte-identical across runs. *)
type replay_row = {
  rv_ops : int;  (* acknowledged mutations before the crash *)
  rv_ckpt : bool;  (* checkpoint taken just before the crash *)
  rv_wal_records : int;  (* records pending replay at crash time *)
  rv_replayed : int;
  rv_torn : int;  (* torn/corrupt records discarded on recovery *)
  rv_mttr_ms : float;  (* simulated restart (checkpoint load + replay) *)
}

type repair_row = {
  rp_divergence : int;  (* shard keys mutated while a replica was cut off *)
  rp_pushes : int;  (* authoritative subtrees shipped to converge *)
  rp_converge_ms : float;  (* heal -> identical digests on every holder *)
  rp_p95_calm_ms : float;  (* client read p95 before the partition *)
  rp_p95_repair_ms : float;  (* client read p95 during background repair *)
}

type recovery_report = {
  rec_replay : replay_row list;
  rec_repair : repair_row list;
}

let replay_run ~ops ~ckpt =
  let module Kernel = Idbox_kernel.Kernel in
  let module Account = Idbox_kernel.Account in
  let module Clock = Idbox_kernel.Clock in
  let module Metrics = Idbox_kernel.Metrics in
  let module Network = Idbox_net.Network in
  let module Fault = Idbox_net.Fault in
  let module Ca = Idbox_auth.Ca in
  let module Credential = Idbox_auth.Credential in
  let module Negotiate = Idbox_auth.Negotiate in
  let module Wal = Idbox_chirp.Wal in
  let module Server = Idbox_chirp.Server in
  let module Client = Idbox_chirp.Client in
  let module Subject = Idbox_identity.Subject in
  let clock = Clock.create () in
  let kernel = Kernel.create ~clock () in
  let net = Network.create ~clock () in
  let owner =
    match Account.add (Kernel.accounts kernel) "chirpuser" with
    | Ok e -> e
    | Error m -> failwith m
  in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"Bench CA" in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let root_acl =
    Idbox_acl.Acl.of_entries
      [
        Idbox_acl.Entry.make ~pattern:"globus:/O=Bench/*"
          (Idbox_acl.Rights.of_string_exn "rwl");
      ]
  in
  (* A torn in-flight write on every crash: recovery must discard it by
     checksum without losing any acknowledged mutation. *)
  let wal =
    Wal.create ~seed:5L
      ~profile:(Fault.storage_profile ~torn_write:1.0 ()) ()
  in
  let server =
    match
      Server.create ~kernel ~net ~addr:"bench.grid.edu:9094"
        ~owner_uid:owner.Account.uid ~export:"/tmp/bench" ~acceptor ~root_acl
        ~wal ~checkpoint_every:1_000_000 ()
    with
    | Ok s -> s
    | Error e -> failwith (Idbox_vfs.Errno.message e)
  in
  let cert = Ca.issue ca (Subject.of_string_exn "/O=Bench/CN=Writer") in
  let c =
    match
      Client.connect net ~addr:"bench.grid.edu:9094"
        ~credentials:[ Credential.Gsi cert ]
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  for i = 0 to ops - 1 do
    match
      Client.put c ~path:(Printf.sprintf "/w%04d" i)
        ~data:(Printf.sprintf "payload-%04d" i)
    with
    | Ok () -> ()
    | Error e -> failwith (Idbox_vfs.Errno.message e)
  done;
  if ckpt then (
    match Server.checkpoint_now server with
    | Ok () -> ()
    | Error e -> failwith (Idbox_vfs.Errno.message e));
  let wal_records = Server.wal_records server in
  let m name = Metrics.counter_value_of (Kernel.metrics kernel) name in
  let replayed0 = m "chirp.recovery.replayed" in
  let torn0 = m "chirp.recovery.torn" in
  Server.crash server;
  let t0 = Clock.now clock in
  Server.restart server;
  let mttr_ns = Int64.to_float (Int64.sub (Clock.now clock) t0) in
  {
    rv_ops = ops;
    rv_ckpt = ckpt;
    rv_wal_records = wal_records;
    rv_replayed = m "chirp.recovery.replayed" - replayed0;
    rv_torn = m "chirp.recovery.torn" - torn0;
    rv_mttr_ms = mttr_ns /. 1e6;
  }

let repair_run ~divergence =
  let module Clock = Idbox_kernel.Clock in
  let module Metrics = Idbox_kernel.Metrics in
  let module Network = Idbox_net.Network in
  let module Fault = Idbox_net.Fault in
  let module Client = Idbox_chirp.Client in
  let module Server = Idbox_chirp.Server in
  let module World = Idbox_cluster.World in
  let module Router = Idbox_cluster.Router in
  let okv ctx = function
    | Ok v -> v
    | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
  in
  let w = World.create () in
  List.iter
    (fun h ->
      match World.add_node w ~host:h with
      | Ok () -> ()
      | Error m -> failwith m)
    [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ];
  World.settle w;
  let policy =
    { Client.default_policy with max_attempts = 12; retry_budget = 1_000_000 }
  in
  let r =
    match World.connect ~policy w ~credentials:[ World.issue w "Bench" ] with
    | Ok r -> r
    | Error m -> failwith m
  in
  let clock = World.clock w in
  let net = World.net w in
  (* Divergence size = distinct shard keys mutated behind the cut:
     repair work (digest checks, subtree pushes) is per key, so this is
     the axis convergence cost scales on. *)
  let dirs = List.init divergence (fun i -> Printf.sprintf "/r%02d" i) in
  let ndirs = List.length dirs in
  List.iter (fun d -> okv "mkdir" (Router.mkdir r d)) dirs;
  let put_round tag =
    List.iteri
      (fun di d ->
        for i = 0 to 3 do
          okv "put"
            (Router.put r
               ~path:(Printf.sprintf "%s/f%d" d i)
               ~data:(Printf.sprintf "%s-%02d-%d-%s" tag di i (String.make 200 'r')))
        done)
      dirs
  in
  put_round "base";
  let read_latency i =
    let d = List.nth dirs (i mod ndirs) in
    let t0 = Clock.now clock in
    ignore (okv "get" (Router.get r (Printf.sprintf "%s/f%d" d (i mod 4))));
    Int64.to_float (Int64.sub (Clock.now clock) t0)
  in
  let calm = List.init 40 read_latency in
  (* Cut gamma off from its peers (client and catalog still reach it:
     membership stays stable, so divergence persists until anti-entropy
     finds it — no ejection, no rebalance safety net). *)
  let from_ns = Clock.now clock in
  let until_ns = Int64.add from_ns 30_000_000_000L in
  Network.set_fault_plan net
    (Fault.plan ~seed:11L
       ~partitions:
         [
           Fault.window ~from_ns ~until_ns
             ~between:("gamma.grid.edu", "alpha.grid.edu");
           Fault.window ~from_ns ~until_ns
             ~between:("gamma.grid.edu", "beta.grid.edu");
         ]
       ());
  put_round "diverged";
  (* Tick out the rest of the partition window: heartbeats stay alive
     (the catalog is reachable from everyone), so membership never
     churns, and in-partition repair attempts fail and re-note their
     keys.  Then heal: pending-set entries from the failed forwards
     make the first post-heal anti-entropy pass repair every diverged
     key, so convergence time is the simulated cost of shipping the
     authoritative subtrees. *)
  while
    Int64.compare (Int64.add (Clock.now clock) 1_000_000_000L) until_ns < 0
  do
    Clock.advance clock 1_000_000_000L;
    World.tick w
  done;
  (* Ticks can overshoot the window (a sweep's failed calls burn
     simulated timeouts), so only advance if the heal is still ahead. *)
  let rest = Int64.sub until_ns (Clock.now clock) in
  if Int64.compare rest 0L > 0 then Clock.advance clock rest;
  let t_heal = Clock.now clock in
  let pushes0 =
    Metrics.counter_value_of (Network.metrics net) "cluster.repair.push"
  in
  let converged () =
    List.for_all
      (fun d ->
        let key = String.sub d 1 (String.length d - 1) in
        let digests =
          List.filter_map
            (fun name ->
              match Server.subtree_digest (World.server w name) key with
              | Ok dg -> Some dg
              | Error _ -> None)
            (World.members w)
        in
        List.length digests >= World.replicas w
        && List.for_all (String.equal (List.hd digests)) digests)
      dirs
  in
  let converged_at = ref None in
  let during = ref [] in
  for step = 0 to 39 do
    Clock.advance clock 1_000_000_000L;
    World.tick w;
    if !converged_at = None && converged () then
      converged_at := Some (Clock.now clock);
    during := read_latency step :: !during
  done;
  (match !converged_at with
   | Some _ -> ()
   | None -> failwith "repair bench: replicas did not converge");
  let converge_ms =
    match !converged_at with
    | Some t -> Int64.to_float (Int64.sub t t_heal) /. 1e6
    | None -> -1.
  in
  {
    rp_divergence = divergence;
    rp_pushes =
      Metrics.counter_value_of (Network.metrics net) "cluster.repair.push"
      - pushes0;
    rp_converge_ms = converge_ms;
    rp_p95_calm_ms = pct (Array.of_list calm) 0.95 /. 1e6;
    rp_p95_repair_ms = pct (Array.of_list !during) 0.95 /. 1e6;
  }

let recovery_report () =
  {
    rec_replay =
      [
        replay_run ~ops:32 ~ckpt:false;
        replay_run ~ops:128 ~ckpt:false;
        replay_run ~ops:512 ~ckpt:false;
        replay_run ~ops:512 ~ckpt:true;
      ];
    rec_repair =
      List.map (fun d -> repair_run ~divergence:d) [ 2; 8; 32 ];
  }

let recovery_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline
    "Recovery - WAL replay MTTR and anti-entropy repair convergence";
  print_endline (String.make 78 '=');
  let r = recovery_report () in
  Printf.printf "%6s %6s %12s %10s %6s %12s\n" "ops" "ckpt" "wal records"
    "replayed" "torn" "mttr (ms)";
  print_endline (String.make 58 '-');
  List.iter
    (fun row ->
      Printf.printf "%6d %6s %12d %10d %6d %12.3f\n" row.rv_ops
        (if row.rv_ckpt then "yes" else "no")
        row.rv_wal_records row.rv_replayed row.rv_torn row.rv_mttr_ms)
    r.rec_replay;
  print_newline ();
  Printf.printf "%10s %8s %14s %14s %14s\n" "divergence" "pushes"
    "converge (ms)" "p95 calm (ms)" "p95 repair(ms)";
  print_endline (String.make 66 '-');
  List.iter
    (fun row ->
      Printf.printf "%10d %8d %14.3f %14.3f %14.3f\n" row.rp_divergence
        row.rp_pushes row.rp_converge_ms row.rp_p95_calm_ms
        row.rp_p95_repair_ms)
    r.rec_repair

(* Concurrent sessions: N authenticated clients all issue one small
   read at the same instant T0, against one default server.  What
   varies is the client side.  Serial [call]s (the "sync" columns)
   serialize whole round trips — client k's exchange cannot even start
   until k-1's response has arrived — so latency grows linearly in N on
   both percentiles.  N concurrent [submit]s (the "async" columns) put
   every exchange in flight at once: the wire legs overlap and only the
   per-request service time serializes on the node, so the makespan
   drops from N*(RTT+s) to RTT+N*s.  Reads never park, so the server's
   flush window plays no part.  Setup (authentication) is untimed; the
   measured window is submission to last completion.  Fully simulated
   and deterministic.

   The table is a modelled figure: those two formulas give every row.
   RTT = 229.6 us is the network model's 2 x 100 us of latency plus the
   78 B request and 292 B response frames at 80 ns/B; s = 12.8 us is
   what [Cost] charges one GET (four delegated calls with two context
   switches each, their bodies, a two-parent name-cache walk and one
   bytecode check).  On the one simulated clock a concurrent reply
   completes no earlier than the server's last handler, at
   106.2 us + N*s, which is why the concurrent p50 and p95 meet at
   large N. *)
type sessions_row = {
  sn_sessions : int;
  sn_sync_kops : float;  (* completed sessions per simulated second, k *)
  sn_sync_p50_us : float;
  sn_sync_p95_us : float;
  sn_async_kops : float;
  sn_async_p50_us : float;
  sn_async_p95_us : float;
}

let sessions_run ~concurrent ~n =
  let module Kernel = Idbox_kernel.Kernel in
  let module Account = Idbox_kernel.Account in
  let module Clock = Idbox_kernel.Clock in
  let module Network = Idbox_net.Network in
  let module Ca = Idbox_auth.Ca in
  let module Credential = Idbox_auth.Credential in
  let module Negotiate = Idbox_auth.Negotiate in
  let module Server = Idbox_chirp.Server in
  let module Client = Idbox_chirp.Client in
  let module Protocol = Idbox_chirp.Protocol in
  let module Subject = Idbox_identity.Subject in
  let clock = Clock.create () in
  let kernel = Kernel.create ~clock () in
  let net = Network.create ~clock () in
  let owner =
    match Account.add (Kernel.accounts kernel) "chirpuser" with
    | Ok e -> e
    | Error m -> failwith m
  in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"Bench CA" in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let root_acl =
    Idbox_acl.Acl.of_entries
      [
        Idbox_acl.Entry.make ~pattern:"globus:/O=Bench/*"
          (Idbox_acl.Rights.of_string_exn "rwl");
      ]
  in
  (match
     Server.create ~kernel ~net ~addr:"bench.grid.edu:9094"
       ~owner_uid:owner.Account.uid ~export:"/tmp/bench" ~acceptor ~root_acl
       ~max_sessions:4096 ()
   with
  | Ok _ -> ()
  | Error e -> failwith (Idbox_vfs.Errno.message e));
  let connect k =
    let cert =
      Ca.issue ca (Subject.of_string_exn (Printf.sprintf "/O=Bench/CN=S%d" k))
    in
    match
      Client.connect
        ~src:(Printf.sprintf "host%d" k)
        net ~addr:"bench.grid.edu:9094"
        ~credentials:[ Credential.Gsi cert ]
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  let seeder = connect (-1) in
  (match Client.put seeder ~path:"/blob" ~data:(String.make 256 'b') with
   | Ok () -> ()
   | Error e -> failwith (Idbox_vfs.Errno.message e));
  let clients = Array.init n connect in
  let payloads =
    Array.map (fun c -> Client.prepare c (Protocol.Get "/blob")) clients
  in
  let t0 = Clock.now clock in
  let latencies =
    if not concurrent then
      (* Serial calls: exchanges serialize end to end, so the k-th
         client's completion time already includes every earlier round
         trip. *)
      Array.map
        (fun payload ->
          match Network.call net ~addr:"bench.grid.edu:9094" payload with
          | Ok _ -> Int64.to_float (Int64.sub (Clock.now clock) t0)
          | Error e -> failwith (Idbox_vfs.Errno.message e))
        payloads
    else begin
      (* Concurrent submits: all N exchanges are in flight before the
         first event runs. *)
      let tokens =
        Array.map
          (fun payload -> Network.submit net ~addr:"bench.grid.edu:9094" payload)
          payloads
      in
      Network.pump net;
      Array.map
        (fun tok ->
          match (Network.poll tok, Network.completed_at tok) with
          | Some (Ok _), Some at -> Int64.to_float (Int64.sub at t0)
          | Some (Error e), _ -> failwith (Idbox_vfs.Errno.message e)
          | _ -> failwith "sessions: exchange never completed")
        tokens
    end
  in
  let makespan_ns = Array.fold_left max 0.0 latencies in
  ( float_of_int n /. (makespan_ns /. 1e9) /. 1e3,
    pct latencies 0.50 /. 1e3,
    pct latencies 0.95 /. 1e3 )

let sessions_rows () =
  List.map
    (fun n ->
      let sync_kops, sync_p50, sync_p95 =
        sessions_run ~concurrent:false ~n
      in
      let async_kops, async_p50, async_p95 =
        sessions_run ~concurrent:true ~n
      in
      {
        sn_sessions = n;
        sn_sync_kops = sync_kops;
        sn_sync_p50_us = sync_p50;
        sn_sync_p95_us = sync_p95;
        sn_async_kops = async_kops;
        sn_async_p50_us = async_p50;
        sn_async_p95_us = async_p95;
      })
    [ 8; 64; 256; 1024 ]

let sessions_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline
    "Sessions - serial calls vs concurrent submits, N simultaneous arrivals";
  print_endline (String.make 78 '=');
  Printf.printf "%9s %12s %11s %11s %12s %11s %11s\n" "sessions" "sync kops"
    "p50 (us)" "p95 (us)" "async kops" "p50 (us)" "p95 (us)";
  print_endline (String.make 78 '-');
  List.iter
    (fun r ->
      Printf.printf "%9d %12.2f %11.1f %11.1f %12.2f %11.1f %11.1f\n"
        r.sn_sessions r.sn_sync_kops r.sn_sync_p50_us r.sn_sync_p95_us
        r.sn_async_kops r.sn_async_p50_us r.sn_async_p95_us)
    (sessions_rows ())

(* Elasticity: the control plane absorbing membership change under
   load, and graceful degradation under overload.

   Absorb: a cluster under a steady probe load has a node added (or
   removed); the figure is how much simulated time passes until reads
   are back under a fixed SLO *and* every shard is replicated at full
   factor with byte-identical digests on its owners.

   Goodput: one server whose batch tick drains a bounded number of
   operations (its engineered service rate) is offered 2x that rate.
   With admission control (a small parked bound => brownout sheds the
   excess with retry-after hints) the queue stays short and
   every acknowledged mutation lands within the SLO.  Without it (a
   practically unbounded queue) every mutation is accepted, the backlog
   grows linearly, acks drift past the SLO and then past the client
   timeout — the server keeps doing work nobody is waiting for
   (counted as late replies).  Goodput is acknowledged-within-SLO
   operations per simulated second.  All simulated, all seeded:
   byte-identical across runs. *)
type elastic_absorb_row = {
  el_event : string;  (* "add" | "remove" *)
  el_nodes : string;  (* "3->4" *)
  el_p95_calm_ms : float;
  el_p95_absorb_ms : float;  (* read p95 over the absorption window *)
  el_absorb_ms : float;  (* time to SLO + full replication factor *)
}

type elastic_goodput_row = {
  eg_mode : string;  (* "shed" | "unshed" *)
  eg_offered : int;
  eg_acked : int;
  eg_in_slo : int;
  eg_shed : int;
  eg_timeout : int;
  eg_late : int;  (* acks after the client gave up: wasted work *)
  eg_goodput_ops : float;  (* in-SLO acks per simulated second *)
  eg_p95_ms : float;  (* over acknowledged mutations *)
}

let elastic_slo_ms = 5.0

let elastic_absorb_run ~event =
  let module Clock = Idbox_kernel.Clock in
  let module Client = Idbox_chirp.Client in
  let module Server = Idbox_chirp.Server in
  let module World = Idbox_cluster.World in
  let module Router = Idbox_cluster.Router in
  let module Replica = Idbox_cluster.Replica in
  let module Ring = Idbox_cluster.Ring in
  let okv ctx = function
    | Ok v -> v
    | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
  in
  let w = World.create () in
  let nodes = match event with "add" -> 3 | _ -> 4 in
  let hosts = List.init 4 (fun i -> Printf.sprintf "n%d.grid.edu" (i + 1)) in
  List.iteri
    (fun i h ->
      if i < nodes then
        match World.add_node w ~host:h with
        | Ok () -> ()
        | Error m -> failwith m)
    hosts;
  World.settle w;
  let policy =
    { Client.default_policy with Client.max_attempts = 8; retry_budget = 200 }
  in
  let r =
    match World.connect ~policy w ~credentials:[ World.issue w "Bench" ] with
    | Ok r -> r
    | Error m -> failwith m
  in
  let clock = World.clock w in
  let dirs = List.init 24 (fun i -> Printf.sprintf "/e%02d" i) in
  List.iter
    (fun d ->
      okv "mkdir" (Router.mkdir r d);
      okv "seed" (Router.put r ~path:(d ^ "/f") ~data:("seed" ^ d)))
    dirs;
  okv "mkdir churn" (Router.mkdir r "/churn");
  let read_round () =
    List.filteri (fun i _ -> i mod 3 = 0) dirs
    |> List.map (fun d ->
           let t0 = Clock.now clock in
           ignore (okv "get" (Router.get r (d ^ "/f")));
           Int64.to_float (Int64.sub (Clock.now clock) t0))
  in
  let calm = List.concat (List.init 5 (fun _ -> read_round ())) in
  let p95_calm_ms = pct (Array.of_list calm) 0.95 /. 1e6 in
  (* The membership event, mid-load. *)
  (match event with
   | "add" ->
     (match World.add_node w ~host:(List.nth hosts 3) with
      | Ok () -> ()
      | Error m -> failwith m)
   | _ ->
     (match World.remove_node w "n4" with
      | Ok () -> ()
      | Error m -> failwith m));
  World.settle w;
  let t0 = Clock.now clock in
  let want = List.length (World.members w) in
  let converged () =
    let ring = Replica.ring (World.replica w (List.hd (World.members w))) in
    List.for_all
      (fun d ->
        let key = String.sub d 1 (String.length d - 1) in
        let holders =
          List.filter_map
            (fun name ->
              match Server.subtree_digest (World.server w name) key with
              | Ok dg -> Some (name, dg)
              | Error _ -> None)
            (World.members w)
        in
        let owners =
          Ring.successors ring key (min (World.replicas w) want)
        in
        List.for_all (fun o -> List.mem_assoc o holders) owners
        && (match holders with
            | [] -> false
            | (_, d0) :: rest ->
              List.for_all (fun (_, dg) -> String.equal d0 dg) rest))
      dirs
  in
  let during = ref [] in
  let absorbed_at = ref None in
  let step = ref 0 in
  while !absorbed_at = None && !step < 120 do
    incr step;
    Clock.advance clock 1_000_000_000L;
    World.tick w;
    Router.sync r;
    (* Keep load on the cluster while it reshapes: reads over the
       tracked shards, one write to a churn shard outside the digest
       check. *)
    okv "churn"
      (Router.put r ~path:"/churn/f" ~data:(Printf.sprintf "c%d" !step));
    let round = read_round () in
    during := round @ !during;
    let p95_ms = pct (Array.of_list round) 0.95 /. 1e6 in
    if
      List.length (Router.nodes r) = want
      && p95_ms <= elastic_slo_ms
      && converged ()
    then absorbed_at := Some (Clock.now clock)
  done;
  (match !absorbed_at with
   | Some _ -> ()
   | None -> failwith ("elastic absorb (" ^ event ^ "): never converged"));
  {
    el_event = event;
    el_nodes = Printf.sprintf "%d->%d" nodes want;
    el_p95_calm_ms = p95_calm_ms;
    el_p95_absorb_ms = pct (Array.of_list !during) 0.95 /. 1e6;
    el_absorb_ms =
      (match !absorbed_at with
       | Some t -> Int64.to_float (Int64.sub t t0) /. 1e6
       | None -> -1.);
  }

let elastic_goodput_run ~shed =
  let module Kernel = Idbox_kernel.Kernel in
  let module Account = Idbox_kernel.Account in
  let module Clock = Idbox_kernel.Clock in
  let module Metrics = Idbox_kernel.Metrics in
  let module Network = Idbox_net.Network in
  let module Ca = Idbox_auth.Ca in
  let module Credential = Idbox_auth.Credential in
  let module Negotiate = Idbox_auth.Negotiate in
  let module Server = Idbox_chirp.Server in
  let module Client = Idbox_chirp.Client in
  let module Protocol = Idbox_chirp.Protocol in
  let module Subject = Idbox_identity.Subject in
  let clock = Clock.create () in
  let kernel = Kernel.create ~clock () in
  let net = Network.create ~clock () in
  let owner =
    match Account.add (Kernel.accounts kernel) "chirpuser" with
    | Ok e -> e
    | Error m -> failwith m
  in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"Bench CA" in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let root_acl =
    Idbox_acl.Acl.of_entries
      [
        Idbox_acl.Entry.make ~pattern:"globus:/O=Bench/*"
          (Idbox_acl.Rights.of_string_exn "rwl");
      ]
  in
  (* Service rate: 8 ops per 50 ms tick (160 ops/s).  Offered: 16 ops
     per tick interval (320 ops/s) — a sustained 2x overload. *)
  let flush_ns = 50_000_000L in
  let drain = 8 in
  let per_round = 16 in
  let rounds = 40 in
  (match
     Server.create ~kernel ~net ~addr:"bench.grid.edu:9094"
       ~owner_uid:owner.Account.uid ~export:"/tmp/bench_elastic" ~acceptor
       ~root_acl ~flush_interval_ns:flush_ns
       ~flush_batch_limit:drain
       ~max_parked:(if shed then 2 * drain else 1_000_000)
       ()
   with
  | Ok _ -> ()
  | Error e -> failwith (Idbox_vfs.Errno.message e));
  let cert = Ca.issue ca (Subject.of_string_exn "/O=Bench/CN=Writer") in
  let c =
    match
      Client.connect net ~addr:"bench.grid.edu:9094"
        ~credentials:[ Credential.Gsi cert ]
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  let t0 = Clock.now clock in
  let slo_ns = Int64.of_float (elastic_slo_ms *. 1e6 *. 40.) in
  (* 200 ms: 4 drain ticks *)
  let timeout_ns = 1_000_000_000L in
  let submissions = ref [] in
  for round = 0 to rounds - 1 do
    let round_end =
      Int64.add t0 (Int64.mul (Int64.of_int (round + 1)) flush_ns)
    in
    for k = 0 to per_round - 1 do
      let path = Printf.sprintf "/g%d_%d" round k in
      let tok =
        Network.submit net ~timeout_ns ~addr:"bench.grid.edu:9094"
          (Client.prepare c (Protocol.Put { path; data = "x" }))
      in
      submissions := (tok, Clock.now clock) :: !submissions
    done;
    (* Run the simulation up to the end of this offered-load interval. *)
    Network.at net round_end (fun () -> ());
    while
      Int64.compare (Clock.now clock) round_end < 0 && Network.step net
    do
      ()
    done
  done;
  (* Drain: let every in-flight exchange finish or time out. *)
  while Network.step net do
    ()
  done;
  let offered = rounds * per_round in
  let acked = ref 0 in
  let in_slo = ref 0 in
  let shed_n = ref 0 in
  let timeouts = ref 0 in
  let ack_lat = ref [] in
  List.iter
    (fun (tok, at) ->
      match Network.poll tok with
      | Some (Ok text) ->
        (match Client.interpret text with
         | Ok _ ->
           incr acked;
           (match Network.completed_at tok with
            | Some done_at ->
              let lat = Int64.sub done_at at in
              ack_lat := Int64.to_float lat :: !ack_lat;
              if Int64.compare lat slo_ns <= 0 then incr in_slo
            | None -> ())
         | Error Idbox_vfs.Errno.EAGAIN -> incr shed_n
         | Error _ -> ())
      | Some (Error Idbox_vfs.Errno.ETIMEDOUT) -> incr timeouts
      | Some (Error _) | None -> ())
    !submissions;
  let makespan_s = Int64.to_float (Int64.sub (Clock.now clock) t0) /. 1e9 in
  let p95 =
    match !ack_lat with
    | [] -> 0.
    | l -> pct (Array.of_list l) 0.95
  in
  {
    eg_mode = (if shed then "shed" else "unshed");
    eg_offered = offered;
    eg_acked = !acked;
    eg_in_slo = !in_slo;
    eg_shed = !shed_n;
    eg_timeout = !timeouts;
    eg_late =
      Metrics.counter_value_of (Network.metrics net)
        "net.late_reply.bench.grid.edu:9094";
    eg_goodput_ops = float_of_int !in_slo /. makespan_s;
    eg_p95_ms = p95 /. 1e6;
  }

let elastic_absorb_rows () =
  [ elastic_absorb_run ~event:"add"; elastic_absorb_run ~event:"remove" ]

let elastic_goodput_rows () =
  [ elastic_goodput_run ~shed:true; elastic_goodput_run ~shed:false ]

let elastic_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline
    "Elasticity - absorbing membership change under load; goodput under \
     overload";
  print_endline (String.make 78 '=');
  Printf.printf "%8s %8s %14s %15s %13s\n" "event" "nodes" "p95 calm (ms)"
    "p95 absorb(ms)" "absorb (ms)";
  print_endline (String.make 62 '-');
  List.iter
    (fun row ->
      Printf.printf "%8s %8s %14.3f %15.3f %13.1f\n" row.el_event row.el_nodes
        row.el_p95_calm_ms row.el_p95_absorb_ms row.el_absorb_ms)
    (elastic_absorb_rows ());
  print_newline ();
  Printf.printf "%7s %8s %7s %7s %6s %8s %6s %13s %9s\n" "mode" "offered"
    "acked" "in-SLO" "shed" "timeout" "late" "goodput ops/s" "p95 (ms)";
  print_endline (String.make 78 '-');
  List.iter
    (fun row ->
      Printf.printf "%7s %8d %7d %7d %6d %8d %6d %13.1f %9.1f\n" row.eg_mode
        row.eg_offered row.eg_acked row.eg_in_slo row.eg_shed row.eg_timeout
        row.eg_late row.eg_goodput_ops row.eg_p95_ms)
    (elastic_goodput_rows ())

let metrics_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline "Metrics - kernel-wide registry after the representative workload";
  print_endline (String.make 78 '=');
  let kernel = Idbox_report.Report.metrics_workload () in
  print_endline (Idbox_report.Report.metrics_json kernel)

(* Geo replication: what the staleness bound buys.  Two region worlds
   on one simulated network; the WAN toward the primary region carries
   a jittery wide-area profile (up to 30 ms per message) while
   intra-region traffic stays LAN-fast.  A secondary-region reader
   sweeps its staleness bound: the wider the bound, the more reads the
   staleness lease lets it serve locally, and the further p50/p95 fall
   below the cross-region figure.  The failover figure is the other
   half of the bargain: with the WAN cut, proxied reads burn timeouts
   until the breaker opens (detection), promotion is explicit, and the
   first in-SLO read marks the end of the blackout.  Deterministic:
   simulated clock, seeded jitter, MD5 ring. *)
type geo_stale_row = {
  gs_bound_ms : float;
  gs_reads : int;
  gs_local : int;
  gs_p50_ms : float;
  gs_p95_ms : float;
}

type geo_report = {
  go_ship_ms : float;
  go_stale : geo_stale_row list;
  go_local_p50_ms : float;
  go_remote_p50_ms : float;
  go_speedup : float;
  go_slo_ms : float;
  go_detect_ms : float;
  go_blackout_ms : float;
}

let geo_ship_interval_ns = 200_000_000L

let geo_setup () =
  let module Clock = Idbox_kernel.Clock in
  let module Network = Idbox_net.Network in
  let module World = Idbox_cluster.World in
  let module Geo = Idbox_cluster.Geo in
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  let ca = Idbox_auth.Ca.create ~name:"Grid CA" in
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
        | Error m -> failwith m)
      hosts;
    World.settle w;
    w
  in
  let east = mk "east" [ "ea.grid.edu"; "eb.grid.edu" ] in
  let west = mk "west" [ "wa.grid.edu"; "wb.grid.edu" ] in
  let geo =
    Geo.link ~ship_interval_ns:geo_ship_interval_ns ~primary:"east" net
      [ ("east", east); ("west", west) ]
  in
  Geo.ship_now geo;
  (clock, net, geo, east, west)

let geo_reader geo w ~region ?policy ?bound_ns () =
  let module World = Idbox_cluster.World in
  let module Geo = Idbox_cluster.Geo in
  match
    Geo.connect geo ~region
      ~credentials:[ World.issue w "Bench" ]
      ?policy ?bound_ns ()
  with
  | Ok r -> r
  | Error m -> failwith m

let geo_stale_run ~bound_ns =
  let module Clock = Idbox_kernel.Clock in
  let module Metrics = Idbox_kernel.Metrics in
  let module Network = Idbox_net.Network in
  let module Fault = Idbox_net.Fault in
  let module World = Idbox_cluster.World in
  let module Geo = Idbox_cluster.Geo in
  let okv ctx = function
    | Ok v -> v
    | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
  in
  let clock, net, geo, east, west = geo_setup () in
  let e = geo_reader geo east ~region:"east" () in
  okv "mkdir" (Geo.mkdir e "/data");
  for i = 0 to 7 do
    okv "put"
      (Geo.put e
         ~path:(Printf.sprintf "/data/f%d" i)
         ~data:(String.make 1024 'g'))
  done;
  Geo.ship_now geo;
  (* The WAN toward the primary region: jitter up to 30 ms on every
     message, no loss (the latency story, uncontaminated by retries). *)
  let wan = Fault.wan ~drop:0.0 ~jitter:1.0 () in
  Network.set_fault_plan net
    (Fault.plan ~seed:11L
       ~per_endpoint:
         [
           ("catalog.east.grid.edu:9097", wan);
           ("ea.grid.edu:9094", wan);
           ("eb.grid.edu:9094", wan);
         ]
       ());
  let w =
    geo_reader geo west ~region:"west" ~policy:Idbox_cluster.Geo.Proxy
      ~bound_ns ()
  in
  let reads = 160 in
  let local = ref 0 in
  let latencies =
    Array.init reads (fun i ->
        Clock.advance clock 20_000_000L;
        World.tick east;
        World.tick west;
        Geo.tick geo;
        let before =
          Metrics.counter_value_of (Network.metrics net)
            "cluster.geo.read.local"
        in
        let t0 = Clock.now clock in
        ignore (okv "get" (Geo.get w (Printf.sprintf "/data/f%d" (i mod 8))));
        let lat = Int64.to_float (Int64.sub (Clock.now clock) t0) in
        if
          Metrics.counter_value_of (Network.metrics net)
            "cluster.geo.read.local"
          > before
        then incr local;
        lat)
  in
  {
    gs_bound_ms = Int64.to_float bound_ns /. 1e6;
    gs_reads = reads;
    gs_local = !local;
    gs_p50_ms = pct latencies 0.50 /. 1e6;
    gs_p95_ms = pct latencies 0.95 /. 1e6;
  }

(* The failover half: WAN cut at 10 s, proxied reads fail until the
   breaker opens (detection); promotion is explicit; blackout ends at
   the first read served within the 5 ms SLO. *)
let geo_slo_ms = 5.0

let geo_failover_run () =
  let module Clock = Idbox_kernel.Clock in
  let module Network = Idbox_net.Network in
  let module Fault = Idbox_net.Fault in
  let module World = Idbox_cluster.World in
  let module Geo = Idbox_cluster.Geo in
  let module Errno = Idbox_vfs.Errno in
  let okv ctx = function
    | Ok v -> v
    | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
  in
  let clock, net, geo, east, west = geo_setup () in
  let e = geo_reader geo east ~region:"east" () in
  okv "mkdir" (Geo.mkdir e "/data");
  okv "put" (Geo.put e ~path:"/data/f0" ~data:(String.make 1024 'g'));
  Geo.ship_now geo;
  Network.set_fault_plan net
    (Fault.plan ~seed:13L
       ~partitions:
         (Geo.wan_windows geo ~from_ns:10_000_000_000L
            ~until_ns:10_000_000_000_000L ~between:("east", "west"))
       ());
  (* bound 0: every read proxies, so the cut is visible immediately. *)
  let w =
    geo_reader geo west ~region:"west" ~policy:Idbox_cluster.Geo.Proxy
      ~bound_ns:0L ()
  in
  (* Steady state: one proxied read establishes the remote session. *)
  ignore (okv "warm proxy" (Geo.get w "/data/f0"));
  Clock.advance_to clock 10_001_000_000L;
  let t0 = Clock.now clock in
  let step () =
    Clock.advance clock 10_000_000L;
    World.tick east;
    World.tick west;
    Geo.tick geo
  in
  (* Detection: reads burn transport timeouts until the breaker opens
     and fails fast — that fast-fail is the promotion trigger. *)
  let rec detect n =
    if n > 200 then failwith "geo failover: breaker never opened";
    match Geo.get w "/data/f0" with
    | Error Errno.EHOSTUNREACH ->
      Int64.to_float (Int64.sub (Clock.now clock) t0) /. 1e6
    | _ ->
      step ();
      detect (n + 1)
  in
  let detect_ms = detect 0 in
  Geo.promote geo "west";
  let slo_ns = geo_slo_ms *. 1e6 in
  let rec serve n =
    if n > 200 then failwith "geo failover: no in-SLO read after promote";
    let r0 = Clock.now clock in
    match Geo.get w "/data/f0" with
    | Ok _ when Int64.to_float (Int64.sub (Clock.now clock) r0) <= slo_ns ->
      Int64.to_float (Int64.sub (Clock.now clock) t0) /. 1e6
    | _ ->
      step ();
      serve (n + 1)
  in
  let blackout_ms = serve 0 in
  (detect_ms, blackout_ms)

let geo_report () =
  let stale =
    List.map
      (fun bound_ns -> geo_stale_run ~bound_ns)
      [ 0L; 5_000_000L; 50_000_000L; 500_000_000L ]
  in
  let row_for ms =
    List.find (fun r -> Float.equal r.gs_bound_ms ms) stale
  in
  let local = row_for 500.0 and remote = row_for 0.0 in
  let detect_ms, blackout_ms = geo_failover_run () in
  {
    go_ship_ms = Int64.to_float geo_ship_interval_ns /. 1e6;
    go_stale = stale;
    go_local_p50_ms = local.gs_p50_ms;
    go_remote_p50_ms = remote.gs_p50_ms;
    go_speedup = remote.gs_p50_ms /. local.gs_p50_ms;
    go_slo_ms = geo_slo_ms;
    go_detect_ms = detect_ms;
    go_blackout_ms = blackout_ms;
  }

let geo_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline
    "Geo - bounded-staleness local reads vs cross-region, time-to-promote";
  print_endline (String.make 78 '=');
  let r = geo_report () in
  Printf.printf "%10s %7s %7s %12s %12s\n" "bound (ms)" "reads" "local"
    "p50 (ms)" "p95 (ms)";
  print_endline (String.make 52 '-');
  List.iter
    (fun row ->
      Printf.printf "%10.0f %7d %7d %12.3f %12.3f\n" row.gs_bound_ms
        row.gs_reads row.gs_local row.gs_p50_ms row.gs_p95_ms)
    r.go_stale;
  Printf.printf
    "in-bound local p50 %.3f ms vs cross-region p50 %.3f ms: %.1fx\n"
    r.go_local_p50_ms r.go_remote_p50_ms r.go_speedup;
  Printf.printf
    "failover at %.1f ms SLO: detect %.1f ms, blackout %.1f ms \
     (cut -> first in-SLO read)\n"
    r.go_slo_ms r.go_detect_ms r.go_blackout_ms

let geo_json_object () =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  let r = geo_report () in
  add (Printf.sprintf "{\"ship_interval_ms\":%.1f,\"staleness\":[" r.go_ship_ms);
  List.iteri
    (fun i row ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"bound_ms\":%.1f,\"reads\":%d,\"local\":%d,\"p50_ms\":%.3f,\
            \"p95_ms\":%.3f}"
           row.gs_bound_ms row.gs_reads row.gs_local row.gs_p50_ms
           row.gs_p95_ms))
    r.go_stale;
  add
    (Printf.sprintf
       "],\"local_p50_ms\":%.3f,\"remote_p50_ms\":%.3f,\"speedup\":%.2f,\
        \"failover\":{\"slo_ms\":%.1f,\"detect_ms\":%.1f,\"blackout_ms\":%.1f}}"
       r.go_local_p50_ms r.go_remote_p50_ms r.go_speedup r.go_slo_ms
       r.go_detect_ms r.go_blackout_ms);
  Buffer.contents b

(* The deterministic machine-readable report (schema idbox-bench/9):
   every simulated figure — resilience, cluster scaling, recovery,
   concurrent sessions, elasticity, geo, the metrics registry — and
   nothing host-timed, so two runs on any machines are byte-identical. *)
let json_report () =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add "{\"schema\":\"idbox-bench/9\",\n \"resilience\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"drop\":%.2f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"retries\":%d,\
            \"drops\":%d}"
           r.rr_drop r.rr_p50_ms r.rr_p95_ms r.rr_retries r.rr_drops))
    (resilience_rows ());
  add "],\n \"cluster_scaling\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"nodes\":%d,\"drop\":%.2f,\"ops\":%d,\"p50_ms\":%.3f,\
            \"p95_ms\":%.3f,\"kops_per_s\":%.1f,\"speedup\":%.2f,\
            \"failovers\":%d,\"drops\":%d}"
           r.cr_nodes r.cr_drop r.cr_ops r.cr_p50_ms r.cr_p95_ms
           r.cr_tput_kops r.cr_speedup r.cr_failovers r.cr_drops))
    (cluster_rows ());
  add "],\n \"recovery\":";
  let rr = recovery_report () in
  add "{\"replay\":[";
  List.iteri
    (fun i row ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"ops\":%d,\"checkpoint\":%b,\"wal_records\":%d,\
            \"replayed\":%d,\"torn\":%d,\"mttr_ms\":%.3f}"
           row.rv_ops row.rv_ckpt row.rv_wal_records row.rv_replayed
           row.rv_torn row.rv_mttr_ms))
    rr.rec_replay;
  add "],\n  \"repair\":[";
  List.iteri
    (fun i row ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"divergence\":%d,\"pushes\":%d,\"converge_ms\":%.3f,\
            \"p95_calm_ms\":%.3f,\"p95_repair_ms\":%.3f}"
           row.rp_divergence row.rp_pushes row.rp_converge_ms
           row.rp_p95_calm_ms row.rp_p95_repair_ms))
    rr.rec_repair;
  add "]}";
  add ",\n \"sessions\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"sessions\":%d,\"sync_kops\":%.3f,\"sync_p50_us\":%.1f,\
            \"sync_p95_us\":%.1f,\"async_kops\":%.3f,\"async_p50_us\":%.1f,\
            \"async_p95_us\":%.1f}"
           r.sn_sessions r.sn_sync_kops r.sn_sync_p50_us r.sn_sync_p95_us
           r.sn_async_kops r.sn_async_p50_us r.sn_async_p95_us))
    (sessions_rows ());
  add "],\n \"elastic\":{\"slo_ms\":";
  add (Printf.sprintf "%.1f" elastic_slo_ms);
  add ",\"absorb\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"event\":%S,\"nodes\":%S,\"p95_calm_ms\":%.3f,\
            \"p95_absorb_ms\":%.3f,\"absorb_ms\":%.1f}"
           r.el_event r.el_nodes r.el_p95_calm_ms r.el_p95_absorb_ms
           r.el_absorb_ms))
    (elastic_absorb_rows ());
  add "],\"goodput\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"mode\":%S,\"offered\":%d,\"acked\":%d,\"in_slo\":%d,\
            \"shed\":%d,\"timeout\":%d,\"late\":%d,\"goodput_ops\":%.1f,\
            \"p95_ms\":%.1f}"
           r.eg_mode r.eg_offered r.eg_acked r.eg_in_slo r.eg_shed
           r.eg_timeout r.eg_late r.eg_goodput_ops r.eg_p95_ms))
    (elastic_goodput_rows ());
  add "]}";
  add ",\n \"geo\":";
  add (geo_json_object ());
  add ",\n \"metrics\":";
  add
    (Idbox_report.Report.metrics_json (Idbox_report.Report.metrics_workload ()));
  add "}";
  print_endline (Buffer.contents b)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let json = List.mem "--json" args in
  let scale = if full then 1.0 else 0.1 in
  let figures = List.filter (fun a -> a <> "--full" && a <> "--json") args in
  match figures with
  | [] when json -> json_report ()
  | [] ->
    Idbox_report.Report.all ~scale ();
    resilience_block ();
    cluster_block ();
    recovery_block ();
    sessions_block ();
    elastic_block ();
    geo_block ();
    metrics_block ()
  | names ->
    List.iter
      (fun name ->
        match name with
        | "fig1" -> Idbox_report.Report.fig1 ()
        | "fig2" -> Idbox_report.Report.fig2 ()
        | "fig3" -> Idbox_report.Report.fig3 ()
        | "fig4" -> Idbox_report.Report.fig4 ()
        | "fig5a" -> Idbox_report.Report.fig5a ()
        | "fig5b" -> Idbox_report.Report.fig5b ~scale ()
        | "fig6" -> Idbox_report.Report.fig6 ()
        | "ablation" | "ablations" -> Idbox_report.Report.ablations ()
        | "resilience" -> resilience_block ()
        | "cluster" | "scaling" -> cluster_block ()
        | "recovery" -> recovery_block ()
        | "sessions" -> sessions_block ()
        | "elastic" -> elastic_block ()
        | "geo" -> geo_block ()
        | "metrics" -> metrics_block ()
        | other ->
          Printf.eprintf
            "unknown artifact %S (try fig1 fig2 fig3 fig4 fig5a fig5b fig6 \
             ablation resilience cluster recovery sessions elastic geo \
             metrics)\n"
            other;
          exit 2)
      names
