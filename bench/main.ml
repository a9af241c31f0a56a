(* The benchmark harness: regenerate every table and figure of the
   paper, then run a Bechamel micro-suite timing the harness itself.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig5b      # one figure
     dune exec bench/main.exe -- --full  # full-size Fig. 5(b) runs
     dune exec bench/main.exe bechamel   # only the Bechamel suite
     dune exec bench/main.exe cluster    # cluster scaling block only
     dune exec bench/main.exe -- --json  # deterministic JSON report

   Simulated results are deterministic; Bechamel times the real cost of
   regenerating each artifact on the host. *)

(* A directory with a large ACL, returned with its enforcement engine.
   The staged benchmark invalidates the cache and re-checks, forcing a
   full ACL-file read each run — the case the Buffer-based
   [read_acl_file] fixed from quadratic to linear host time. *)
let large_acl_fixture n =
  let module Kernel = Idbox_kernel.Kernel in
  let module Enforce = Idbox.Enforce in
  let module Acl = Idbox_acl.Acl in
  let module Entry = Idbox_acl.Entry in
  let module Rights = Idbox_acl.Rights in
  let kernel = Kernel.create () in
  let sup = Kernel.make_view kernel ~uid:0 () in
  let enforce = Enforce.create kernel ~supervisor:sup () in
  let dir = "/bigacl" in
  (match Idbox_vfs.Fs.mkdir_p (Kernel.fs kernel) ~uid:0 dir with
   | Ok () -> ()
   | Error e -> failwith (Idbox_vfs.Errno.message e));
  let entries =
    List.init n (fun i ->
        Entry.make
          ~pattern:(Printf.sprintf "globus:/O=UnivNowhere/CN=user%04d" i)
          (Rights.of_string_exn "rwl"))
  in
  (match Enforce.write_acl enforce ~dir (Acl.of_entries entries) with
   | Ok () -> ()
   | Error e -> failwith (Idbox_vfs.Errno.message e));
  let who = Idbox_identity.Principal.of_string "globus:/O=UnivNowhere/CN=user0000" in
  fun () ->
    Enforce.invalidate enforce ~dir;
    ignore (Enforce.check_in_dir enforce ~identity:who ~dir Idbox_acl.Right.Read)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline "Bechamel - host-time cost of regenerating each artifact";
  print_endline (String.make 78 '=');
  (* One Test.make per table/figure.  Small iteration counts: these
     measure harness cost, not simulated results (which are exact). *)
  let tests =
    [
      Test.make ~name:"fig1_probe_matrix"
        (Staged.stage (fun () -> ignore (Idbox_accounts.Probe.rows ())));
      Test.make ~name:"fig4_trap_accounting"
        (Staged.stage (fun () -> ignore (Idbox_workload.Microbench.fig4 ())));
      Test.make ~name:"fig5a_syscall_latency"
        (Staged.stage (fun () ->
             ignore (Idbox_workload.Microbench.fig5a ~iters:100 ())));
      Test.make ~name:"fig5b_app_runtimes"
        (Staged.stage (fun () ->
             ignore (Idbox_workload.Runner.fig5b ~scale:0.002 ())));
      Test.make ~name:"fig6_kernel_ablation"
        (Staged.stage (fun () ->
             ignore
               (Idbox_workload.Runner.fig6_ablation ~scale:0.002
                  ~apps:[ Idbox_workload.Apps.ibis ] ())));
      Test.make ~name:"large_acl_read"
        (Staged.stage (large_acl_fixture 2000));
    ]
  in
  let test = Test.make_grouped ~name:"idbox" ~fmt:"%s/%s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ()
    in
    let raw_results = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  Printf.printf "%-38s %18s\n" "artifact" "host time/run";
  print_endline (String.make 58 '-');
  Hashtbl.iter
    (fun _instance table ->
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols) ->
             match Bechamel.Analyze.OLS.estimates ols with
             | Some (est :: _) ->
               let pretty =
                 if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
                 else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
                 else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
                 else Printf.sprintf "%.0f ns" est
               in
               Printf.printf "%-38s %18s\n" name pretty
             | Some [] | None -> Printf.printf "%-38s %18s\n" name "(n/a)"))
    results

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
    Array.sort compare latencies;
    let pct p =
      latencies.(min (calls - 1) (int_of_float (float_of_int calls *. p)))
    in
    let drops = Metrics.counter_value_of (Network.metrics net) "net.drop" in
    {
      rr_drop = drop;
      rr_p50_ms = pct 0.50 /. 1e6;
      rr_p95_ms = pct 0.95 /. 1e6;
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
  Array.sort compare latencies;
  let pct p =
    latencies.(min (ops - 1) (int_of_float (float_of_int ops *. p)))
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
    cr_p50_ms = pct 0.50 /. 1e6;
    cr_p95_ms = pct 0.95 /. 1e6;
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
  let pct latencies p =
    let a = Array.of_list latencies in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (float_of_int n *. p)))
  in
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
             ~between:("gamma.grid.edu", "alpha.grid.edu") ();
           Fault.window ~from_ns ~until_ns
             ~between:("gamma.grid.edu", "beta.grid.edu") ();
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
    rp_p95_calm_ms = pct calm 0.95 /. 1e6;
    rp_p95_repair_ms = pct !during 0.95 /. 1e6;
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

(* The cache ablation: the same warm ACL-heavy workload through three
   engine tiers — compiled-policy bytecode (perfect-hash decision
   program consulted at syscall entry), the generation-validated
   decision caches with bytecode pinned off, and caching off entirely
   (the pre-cache behaviour, and what the paper's Parrot pays: a
   revalidation lstat per check).  All phases are measured warm — one
   priming pass first — so the figure isolates steady-state cost, the
   cached tiers must clock {e zero} delegated syscalls, and the verdict
   transcripts of all three tiers must be byte-identical.  Plus the
   batched-RPC figure: 64 reads as 64 round trips vs. one [Batch]
   envelope.  All simulated and seeded: byte-identical across runs. *)
type cache_mode_row = {
  cm_mode : string;
  cm_checks : int;
  cm_ns_per_check : float;
  cm_total_ms : float;
  cm_delegated : int;  (* delegated syscalls during the measured phase *)
}

type cache_report = {
  cb_modes : cache_mode_row list;
  cb_speedup : float;  (* uncached simulated time / decision-cached *)
  cb_bc_speedup : float;  (* decision-cached simulated time / bytecode *)
  cb_verdicts_identical : bool;  (* transcripts equal across all tiers *)
  cb_acl_hits : int;
  cb_dec_hits : int;
  cb_name_hits : int;
  cb_bc_hits : int;
  cb_bc_stale : int;
  cb_bc_fallback : int;
  cb_bc_recompile : int;
  cb_lease_hits : int;
  cb_ops : int;
  cb_seq_msgs : int;
  cb_seq_ms : float;
  cb_batch_msgs : int;
  cb_batch_ms : float;
}

let cache_enforce_run ~mode =
  let module Kernel = Idbox_kernel.Kernel in
  let module Clock = Idbox_kernel.Clock in
  let module Metrics = Idbox_kernel.Metrics in
  let module Enforce = Idbox.Enforce in
  let module Acl = Idbox_acl.Acl in
  let module Entry = Idbox_acl.Entry in
  let module Rights = Idbox_acl.Rights in
  let module Right = Idbox_acl.Right in
  let kernel = Kernel.create () in
  let sup = Kernel.make_view kernel ~uid:0 () in
  let caching, bytecode =
    match mode with
    | `Bytecode -> (true, true)
    | `Cached -> (true, false)
    | `Uncached -> (false, false)
  in
  let enforce = Enforce.create ~caching ~bytecode kernel ~supervisor:sup () in
  let dirs = List.init 8 (fun i -> Printf.sprintf "/proj/d%d" i) in
  List.iter
    (fun dir ->
      (match Idbox_vfs.Fs.mkdir_p (Kernel.fs kernel) ~uid:0 dir with
       | Ok () -> ()
       | Error e -> failwith (Idbox_vfs.Errno.message e));
      let acl =
        Acl.of_entries
          (Entry.make ~pattern:"kerberos:*@BENCH.EDU"
             (Rights.of_string_exn "rl")
           :: List.init 4 (fun k ->
                  Entry.make
                    ~pattern:(Printf.sprintf "globus:/O=Bench/CN=user%d" k)
                    (Rights.of_string_exn "rwl")))
      in
      match Enforce.write_acl enforce ~dir acl with
      | Ok () -> ()
      | Error e -> failwith (Idbox_vfs.Errno.message e))
    dirs;
  let identities =
    List.map Idbox_identity.Principal.of_string
      [
        "globus:/O=Bench/CN=user0";
        "globus:/O=Bench/CN=user1";
        "globus:/O=Bench/CN=user2";
        "kerberos:alice@BENCH.EDU";
      ]
  in
  let rights = [ Right.Read; Right.Write; Right.List ] in
  let transcript = Buffer.create 512 in
  let pass ~record () =
    List.iter
      (fun dir ->
        List.iter
          (fun identity ->
            List.iter
              (fun right ->
                let v =
                  Enforce.check_object enforce ~identity
                    ~path:(dir ^ "/blob") right
                in
                if record then
                  Buffer.add_char transcript
                    (match v with Ok () -> 'A' | Error _ -> 'D'))
              rights)
          identities)
      dirs
  in
  pass ~record:false ();  (* prime every cache: the figure is the warm path *)
  let clock = Kernel.clock kernel in
  let rounds = 50 in
  let t0 = Clock.now clock in
  let d0 = (Kernel.stats kernel).Kernel.delegated in
  for _ = 1 to rounds do
    pass ~record:false ()
  done;
  let total_ns = Int64.to_float (Int64.sub (Clock.now clock) t0) in
  let checks = rounds * List.length dirs * List.length identities
               * List.length rights in
  (* One untimed recording pass: the verdict transcript the tiers must
     agree on, byte for byte. *)
  pass ~record:true ();
  let value name = Metrics.counter_value_of (Kernel.metrics kernel) name in
  ( {
      cm_mode =
        (match mode with
         | `Bytecode -> "bytecode"
         | `Cached -> "cached"
         | `Uncached -> "uncached");
      cm_checks = checks;
      cm_ns_per_check = total_ns /. float_of_int checks;
      cm_total_ms = total_ns /. 1e6;
      cm_delegated = (Kernel.stats kernel).Kernel.delegated - d0;
    },
    (value "acl.cache.hit", value "enforce.decision.hit",
     value "enforce.name.hit"),
    (value "kernel.bytecode.hit", value "kernel.bytecode.stale",
     value "kernel.bytecode.fallback", value "kernel.bytecode.recompile"),
    Buffer.contents transcript )

let cache_batch_run () =
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
  (match
     Server.create ~kernel ~net ~addr:"bench.grid.edu:9094"
       ~owner_uid:owner.Account.uid ~export:"/tmp/bench" ~acceptor ~root_acl ()
   with
  | Ok _ -> ()
  | Error e -> failwith (Idbox_vfs.Errno.message e));
  let cert = Ca.issue ca (Subject.of_string_exn "/O=Bench/CN=Reader") in
  let c =
    match
      Client.connect net ~addr:"bench.grid.edu:9094"
        ~credentials:[ Credential.Gsi cert ]
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  let ops = 64 in
  let paths = List.init ops (fun i -> Printf.sprintf "/blob%02d" i) in
  List.iter
    (fun path ->
      match Client.put c ~path ~data:(String.make 256 'b') with
      | Ok () -> ()
      | Error e -> failwith (Idbox_vfs.Errno.message e))
    paths;
  (* Sequential: one round trip per read. *)
  let m0 = Network.total_messages net in
  let t0 = Clock.now clock in
  List.iter
    (fun path ->
      match Client.get c path with
      | Ok _ -> ()
      | Error e -> failwith (Idbox_vfs.Errno.message e))
    paths;
  let seq_msgs = Network.total_messages net - m0 in
  let seq_ms = Int64.to_float (Int64.sub (Clock.now clock) t0) /. 1e6 in
  (* Batched: the same reads in one envelope. *)
  let m1 = Network.total_messages net in
  let t1 = Clock.now clock in
  (match Client.batch c (List.map (fun p -> Protocol.Get p) paths) with
   | Ok rs when List.length rs = ops -> ()
   | Ok _ -> failwith "batch: wrong arity"
   | Error e -> failwith (Idbox_vfs.Errno.message e));
  let batch_msgs = Network.total_messages net - m1 in
  let batch_ms = Int64.to_float (Int64.sub (Clock.now clock) t1) /. 1e6 in
  (* And a lease hit: the second stat is served without a round trip. *)
  (match (Client.stat c "/blob00", Client.stat c "/blob00") with
   | Ok _, Ok _ -> ()
   | _ -> failwith "stat");
  let lease_hits =
    Metrics.counter_value_of (Network.metrics net) "chirp.lease.hit"
  in
  (ops, seq_msgs, seq_ms, batch_msgs, batch_ms, lease_hits)

let cache_report () =
  let bytecode, _, (bc_hits, bc_stale, bc_fallback, bc_recompile), bc_tx =
    cache_enforce_run ~mode:`Bytecode
  in
  let cached, (acl_hits, dec_hits, name_hits), _, cached_tx =
    cache_enforce_run ~mode:`Cached
  in
  let uncached, _, _, uncached_tx = cache_enforce_run ~mode:`Uncached in
  let ops, seq_msgs, seq_ms, batch_msgs, batch_ms, lease_hits =
    cache_batch_run ()
  in
  {
    cb_modes = [ bytecode; cached; uncached ];
    cb_speedup = uncached.cm_total_ms /. cached.cm_total_ms;
    cb_bc_speedup = cached.cm_total_ms /. bytecode.cm_total_ms;
    cb_verdicts_identical =
      String.equal bc_tx cached_tx && String.equal cached_tx uncached_tx
      && String.length bc_tx > 0;
    cb_acl_hits = acl_hits;
    cb_dec_hits = dec_hits;
    cb_name_hits = name_hits;
    cb_bc_hits = bc_hits;
    cb_bc_stale = bc_stale;
    cb_bc_fallback = bc_fallback;
    cb_bc_recompile = bc_recompile;
    cb_lease_hits = lease_hits;
    cb_ops = ops;
    cb_seq_msgs = seq_msgs;
    cb_seq_ms = seq_ms;
    cb_batch_msgs = batch_msgs;
    cb_batch_ms = batch_ms;
  }

let cache_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline
    "Cache - compiled policy bytecode, generation caches, batched Chirp RPC";
  print_endline (String.make 78 '=');
  let r = cache_report () in
  Printf.printf "%10s %8s %14s %12s %10s\n" "mode" "checks" "ns/check"
    "total (ms)" "delegated";
  print_endline (String.make 58 '-');
  List.iter
    (fun m ->
      Printf.printf "%10s %8d %14.1f %12.3f %10d\n" m.cm_mode m.cm_checks
        m.cm_ns_per_check m.cm_total_ms m.cm_delegated)
    r.cb_modes;
  Printf.printf
    "warm speedup: cache vs uncached %.2fx, bytecode vs cache %.2fx   \
     verdicts identical: %b\n"
    r.cb_speedup r.cb_bc_speedup r.cb_verdicts_identical;
  Printf.printf
    "hits: acl %d, decision %d, name %d, lease %d   bytecode: hit %d, \
     stale %d, fallback %d, recompile %d\n"
    r.cb_acl_hits r.cb_dec_hits r.cb_name_hits r.cb_lease_hits r.cb_bc_hits
    r.cb_bc_stale r.cb_bc_fallback r.cb_bc_recompile;
  Printf.printf
    "batch rpc: %d reads  sequential %d msgs %.3f ms   batched %d msgs %.3f \
     ms  (%.0fx fewer messages)\n"
    r.cb_ops r.cb_seq_msgs r.cb_seq_ms r.cb_batch_msgs r.cb_batch_ms
    (float_of_int r.cb_seq_msgs /. float_of_int (max 1 r.cb_batch_msgs))

(* The cache figure as one JSON object — embedded in the full report
   and printed standalone by [bench cache --json] (the committed
   BENCH_cache.json, asserted by CI's bytecode-speedup smoke). *)
let cache_json_object () =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  let cr = cache_report () in
  add "{\"enforce\":[";
  List.iteri
    (fun i m ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "{\"mode\":%S,\"checks\":%d,\"ns_per_check\":%.1f,\
            \"total_ms\":%.3f,\"delegated\":%d}"
           m.cm_mode m.cm_checks m.cm_ns_per_check m.cm_total_ms
           m.cm_delegated))
    cr.cb_modes;
  add
    (Printf.sprintf
       "],\"speedup\":%.2f,\"bytecode_speedup\":%.2f,\
        \"verdicts_identical\":%b,\"counters\":{\"acl_cache_hit\":%d,\
        \"decision_hit\":%d,\"name_hit\":%d,\"lease_hit\":%d,\
        \"bytecode_hit\":%d,\"bytecode_stale\":%d,\"bytecode_fallback\":%d,\
        \"bytecode_recompile\":%d},\
        \"batch\":{\"ops\":%d,\"seq_msgs\":%d,\"seq_ms\":%.3f,\
        \"batch_msgs\":%d,\"batch_ms\":%.3f}}"
       cr.cb_speedup cr.cb_bc_speedup cr.cb_verdicts_identical cr.cb_acl_hits
       cr.cb_dec_hits cr.cb_name_hits cr.cb_lease_hits cr.cb_bc_hits
       cr.cb_bc_stale cr.cb_bc_fallback cr.cb_bc_recompile cr.cb_ops
       cr.cb_seq_msgs cr.cb_seq_ms cr.cb_batch_msgs cr.cb_batch_ms);
  Buffer.contents b

let cache_json () =
  print_endline
    (Printf.sprintf "{\"schema\":\"idbox-bench-cache/1\",\n \"cache\":%s}"
       (cache_json_object ()))

(* The machine-readable block for BENCH_*.json trajectory tracking:
   run the representative boxed workload, print one JSON object. *)
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
   and deterministic. *)
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
  Array.sort compare latencies;
  let pct p = latencies.(min (n - 1) (int_of_float (float_of_int n *. p))) in
  ( float_of_int n /. (makespan_ns /. 1e9) /. 1e3,
    pct 0.50 /. 1e3,
    pct 0.95 /. 1e3 )

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
  let pct latencies p =
    let a = Array.of_list latencies in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (float_of_int n *. p)))
  in
  let calm = List.concat (List.init 5 (fun _ -> read_round ())) in
  let p95_calm_ms = pct calm 0.95 /. 1e6 in
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
    let p95_ms = pct round 0.95 /. 1e6 in
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
    el_p95_absorb_ms = pct !during 0.95 /. 1e6;
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
    | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(min (Array.length a - 1)
           (int_of_float (float_of_int (Array.length a) *. 0.95)))
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

(* Delegation: the cost of certified chains.  (a) Chain-validation
   ns/hop, cold (one chain_hop_ns charge per hop) vs warm through the
   generation-validated memo (one gen_check_ns, independent of length).
   (b) Delegated vs direct exec throughput on a 3-node cluster: the
   same program run by its owner directly and by a two-hop delegatee
   under attenuated identity.  Fully simulated and deterministic. *)
type deleg_chain_row = {
  dc_hops : int;
  dc_cold_ns : float;  (* whole-chain cold validation *)
  dc_cold_ns_per_hop : float;
  dc_warm_ns : float;  (* per warm validation: one generation check *)
  dc_warm_speedup : float;
}

type deleg_report = {
  dl_chain : deleg_chain_row list;
  dl_ops : int;
  dl_direct_ms : float;
  dl_direct_kops : float;  (* execs per simulated second, k *)
  dl_deleg_ms : float;
  dl_deleg_kops : float;
  dl_overhead : float;  (* delegated time / direct time *)
}

let delegation_chain_rows () =
  let module Kernel = Idbox_kernel.Kernel in
  let module Clock = Idbox_kernel.Clock in
  let module Enforce = Idbox.Enforce in
  let module Ca = Idbox_auth.Ca in
  let module Delegation = Idbox_auth.Delegation in
  let kernel = Kernel.create () in
  let sup = Kernel.make_view kernel ~uid:0 () in
  let enforce = Enforce.create kernel ~supervisor:sup () in
  let clock = Kernel.clock kernel in
  let ca = Ca.create ~name:"Bench CA" in
  let revocations = Delegation.Revocations.create () in
  let principal i = Printf.sprintf "globus:/O=Bench/CN=hop%02d" i in
  let chain_of hops =
    List.init hops (fun i ->
        Delegation.mint ca ~delegator:(principal i)
          ~delegatee:(principal (i + 1))
          ~rights:(Idbox_acl.Rights.of_string_exn "rwl")
          ~prefix:"/" ~now:0L ~ttl_ns:3_600_000_000_000L ~hops:16 ())
  in
  List.map
    (fun hops ->
      let chain = chain_of hops in
      let holder = principal hops in
      let admit () =
        match
          Enforce.admit_chain enforce ~trusted:[ ca ] ~revocations
            ~now:(Clock.now clock) ~holder chain
        with
        | Ok _ -> ()
        | Error f -> failwith (Delegation.failure_message f)
      in
      let t0 = Clock.now clock in
      admit ();
      let cold_ns = Int64.to_float (Int64.sub (Clock.now clock) t0) in
      let warm_rounds = 100 in
      let t1 = Clock.now clock in
      for _ = 1 to warm_rounds do
        admit ()
      done;
      let warm_ns =
        Int64.to_float (Int64.sub (Clock.now clock) t1)
        /. float_of_int warm_rounds
      in
      {
        dc_hops = hops;
        dc_cold_ns = cold_ns;
        dc_cold_ns_per_hop = cold_ns /. float_of_int hops;
        dc_warm_ns = warm_ns;
        dc_warm_speedup = cold_ns /. warm_ns;
      })
    [ 1; 2; 4; 8 ]

let delegation_exec_run () =
  let module Kernel = Idbox_kernel.Kernel in
  let module Clock = Idbox_kernel.Clock in
  let module Program = Idbox_kernel.Program in
  let module World = Idbox_cluster.World in
  let module Router = Idbox_cluster.Router in
  Kernel.with_fresh_programs (fun () ->
      let w = World.create () in
      List.iter
        (fun h ->
          match World.add_node w ~host:h with
          | Ok _ -> ()
          | Error m -> failwith m)
        [ "a.grid.edu"; "b.grid.edu"; "c.grid.edu" ];
      World.settle w;
      Program.register "noop" (fun _ -> 0);
      let connect cn =
        match World.connect w ~credentials:[ World.issue w cn ] with
        | Ok r -> r
        | Error m -> failwith m
      in
      let ra = connect "Alice" in
      (match Router.mkdir ra "/work" with
       | Ok () -> ()
       | Error e -> failwith (Idbox_vfs.Errno.message e));
      (match
         Router.put ra ~path:"/work/noop.exe" ~data:(Program.marker "noop")
       with
       | Ok () -> ()
       | Error e -> failwith (Idbox_vfs.Errno.message e));
      let rights = Idbox_acl.Rights.of_string_exn in
      let chain =
        [
          World.delegate w ~delegator:"Alice" ~delegatee:"Bob"
            ~rights:(rights "rxl") ~prefix:"/work" ();
          World.delegate w ~delegator:"Bob" ~delegatee:"Carol"
            ~rights:(rights "rx") ~prefix:"/work" ();
        ]
      in
      let rc = connect "Carol" in
      let clock = World.clock w in
      let ops = 64 in
      let run label f =
        let t0 = Clock.now clock in
        for _ = 1 to ops do
          match f () with
          | Ok 0 -> ()
          | Ok n -> failwith (Printf.sprintf "%s: exit %d" label n)
          | Error e -> failwith (label ^ ": " ^ Idbox_vfs.Errno.message e)
        done;
        Int64.to_float (Int64.sub (Clock.now clock) t0) /. 1e6
      in
      let direct_ms =
        run "direct" (fun () ->
            Router.exec ra ~path:"/work/noop.exe" ~args:[ "noop.exe" ] ())
      in
      let deleg_ms =
        run "delegated" (fun () ->
            Router.exec_delegated rc ~chain ~path:"/work/noop.exe"
              ~args:[ "noop.exe" ] ())
      in
      (ops, direct_ms, deleg_ms))

let delegation_report () =
  let chain = delegation_chain_rows () in
  let ops, direct_ms, deleg_ms = delegation_exec_run () in
  let kops ms = float_of_int ops /. ms in
  {
    dl_chain = chain;
    dl_ops = ops;
    dl_direct_ms = direct_ms;
    dl_direct_kops = kops direct_ms;
    dl_deleg_ms = deleg_ms;
    dl_deleg_kops = kops deleg_ms;
    dl_overhead = deleg_ms /. direct_ms;
  }

let delegation_block () =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline
    "Delegation - chain-validation memo + delegated vs direct exec";
  print_endline (String.make 78 '=');
  let r = delegation_report () in
  Printf.printf "%6s %12s %14s %14s %13s\n" "hops" "cold (ns)" "cold ns/hop"
    "warm (ns)" "warm speedup";
  print_endline (String.make 62 '-');
  List.iter
    (fun row ->
      Printf.printf "%6d %12.0f %14.0f %14.0f %12.1fx\n" row.dc_hops
        row.dc_cold_ns row.dc_cold_ns_per_hop row.dc_warm_ns
        row.dc_warm_speedup)
    r.dl_chain;
  Printf.printf
    "exec: %d ops  direct %.3f ms (%.2f kops/s)   2-hop delegated %.3f ms \
     (%.2f kops/s)  overhead %.2fx\n"
    r.dl_ops r.dl_direct_ms r.dl_direct_kops r.dl_deleg_ms r.dl_deleg_kops
    r.dl_overhead

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
  Array.sort compare latencies;
  let pct p =
    latencies.(min (reads - 1) (int_of_float (float_of_int reads *. p)))
  in
  {
    gs_bound_ms = Int64.to_float bound_ns /. 1e6;
    gs_reads = reads;
    gs_local = !local;
    gs_p50_ms = pct 0.50 /. 1e6;
    gs_p95_ms = pct 0.95 /. 1e6;
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
            ~until_ns:10_000_000_000_000L ~between:("east", "west") ())
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

let geo_json () =
  print_endline
    (Printf.sprintf "{\"schema\":\"idbox-bench-geo/1\",\n \"geo\":%s}"
       (geo_json_object ()))

(* The deterministic machine-readable report (schema idbox-bench/8):
   every simulated figure — resilience, cluster scaling, recovery,
   concurrent sessions, delegation, the metrics registry — and nothing host-timed
   (Bechamel stays human-only), so two runs on any machines are
   byte-identical. *)
let json_report () =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add "{\"schema\":\"idbox-bench/8\",\n \"resilience\":[";
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
  add ",\n \"cache\":";
  add (cache_json_object ());
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
  add "]},\n \"delegation\":{\"chain\":[";
  let dr = delegation_report () in
  List.iteri
    (fun i row ->
      if i > 0 then add ",\n   ";
      add
        (Printf.sprintf
           "{\"hops\":%d,\"cold_ns\":%.0f,\"cold_ns_per_hop\":%.0f,\
            \"warm_ns\":%.0f,\"warm_speedup\":%.1f}"
           row.dc_hops row.dc_cold_ns row.dc_cold_ns_per_hop row.dc_warm_ns
           row.dc_warm_speedup))
    dr.dl_chain;
  add
    (Printf.sprintf
       "],\"exec\":{\"ops\":%d,\"direct_ms\":%.3f,\"direct_kops\":%.3f,\
        \"delegated_ms\":%.3f,\"delegated_kops\":%.3f,\"overhead\":%.2f}}"
       dr.dl_ops dr.dl_direct_ms dr.dl_direct_kops dr.dl_deleg_ms
       dr.dl_deleg_kops dr.dl_overhead);
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
    bechamel_suite ();
    resilience_block ();
    cluster_block ();
    recovery_block ();
    cache_block ();
    sessions_block ();
    elastic_block ();
    delegation_block ();
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
        | "bechamel" -> bechamel_suite ()
        | "resilience" -> resilience_block ()
        | "cluster" | "scaling" -> cluster_block ()
        | "recovery" -> recovery_block ()
        | "cache" | "caches" -> if json then cache_json () else cache_block ()
        | "sessions" -> sessions_block ()
        | "elastic" -> elastic_block ()
        | "delegation" -> delegation_block ()
        | "geo" -> if json then geo_json () else geo_block ()
        | "metrics" -> metrics_block ()
        | other ->
          Printf.eprintf
            "unknown artifact %S (try fig1 fig2 fig3 fig4 fig5a fig5b fig6 \
             ablation bechamel resilience cluster recovery cache sessions \
             elastic delegation geo metrics)\n"
            other;
          exit 2)
      names
