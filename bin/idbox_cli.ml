(* The idbox command-line tool.

   Subcommands:
     idbox report [ARTIFACT...] [--full]   regenerate paper tables/figures
     idbox schemes                         the Figure 1 matrix only
     idbox session NAME [--files P...] [--trace]
                                           an ad-hoc identity-box session
     idbox stats [--trace]                 metrics JSON for a canned workload
     idbox acl check ENTRY... --who P --right R
                                           evaluate an ACL from the shell
     idbox cluster [--nodes N] [--drop P] [--trace]
                                           an N-node sharded Chirp cluster demo
     idbox delegate                        a 3-node A->B->C delegated-exec
                                           walkthrough with revocation *)

open Cmdliner

(* --- report ----------------------------------------------------------- *)

let artifacts =
  let doc =
    "Artifacts to regenerate: fig1 fig2 fig3 fig4 fig5a fig5b fig6 ablation \
     (default: all)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"ARTIFACT" ~doc)

let full =
  let doc = "Run Figure 5(b) at the paper's full workload size (slow)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let report_cmd =
  let run artifacts full =
    let scale = if full then 1.0 else 0.1 in
    match artifacts with
    | [] -> `Ok (Idbox_report.Report.all ~scale ())
    | names ->
      let step name =
        match name with
        | "fig1" -> Ok (Idbox_report.Report.fig1 ())
        | "fig2" -> Ok (Idbox_report.Report.fig2 ())
        | "fig3" -> Ok (Idbox_report.Report.fig3 ())
        | "fig4" -> Ok (Idbox_report.Report.fig4 ())
        | "fig5a" -> Ok (Idbox_report.Report.fig5a ())
        | "fig5b" -> Ok (Idbox_report.Report.fig5b ~scale ())
        | "fig6" -> Ok (Idbox_report.Report.fig6 ())
        | "ablation" | "ablations" -> Ok (Idbox_report.Report.ablations ())
        | other -> Error other
      in
      let rec go = function
        | [] -> `Ok ()
        | name :: rest ->
          (match step name with
           | Ok () -> go rest
           | Error other -> `Error (false, Printf.sprintf "unknown artifact %S" other))
      in
      go names
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "report" ~doc) Term.(ret (const run $ artifacts $ full))

(* --- schemes ----------------------------------------------------------- *)

let schemes_cmd =
  let run () = print_string (Idbox_accounts.Probe.render_table (Idbox_accounts.Probe.rows ())) in
  let doc = "Print the derived Figure 1 identity-mapping matrix." in
  Cmd.v (Cmd.info "schemes" ~doc) Term.(const run $ const ())

(* --- session ----------------------------------------------------------- *)

let identity_arg =
  let doc = "The visiting identity (any string, e.g. Freddy or a subject DN)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"IDENTITY" ~doc)

let files_arg =
  let doc = "Supervisor files to create before the session (PATH=CONTENTS)." in
  Arg.(value & opt_all string [] & info [ "file" ] ~docv:"PATH=TEXT" ~doc)

let trace_arg =
  let doc = "After the run, print the kernel's trace ring (one line per \
             serviced system call) and the metrics JSON block." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let dump_trace kernel =
  let module Kernel = Idbox_kernel.Kernel in
  let module Trace = Idbox_kernel.Trace in
  let ring = Kernel.trace_ring kernel in
  Printf.printf "trace: %d spans retained (%d emitted, %d dropped)\n"
    (Trace.length ring) (Trace.total ring) (Trace.dropped ring);
  Trace.iter ring (fun span ->
      Format.printf "  %a@." Trace.pp_span span);
  print_endline (Idbox_report.Report.metrics_json kernel)

let session_cmd =
  let run identity files trace =
    let module Kernel = Idbox_kernel.Kernel in
    let module Libc = Idbox_kernel.Libc in
    let module Fs = Idbox_vfs.Fs in
    let kernel = Kernel.create () in
    let sup =
      match Kernel.add_user kernel "supervisor" with
      | Ok e -> e
      | Error m -> failwith m
    in
    List.iter
      (fun spec ->
        match String.index_opt spec '=' with
        | None -> failwith (Printf.sprintf "bad --file %S (want PATH=TEXT)" spec)
        | Some i ->
          let path = String.sub spec 0 i in
          let text = String.sub spec (i + 1) (String.length spec - i - 1) in
          (match
             Fs.write_file (Kernel.fs kernel) ~uid:0 ~mode:0o600 path text
           with
           | Ok () -> Printf.printf "staged %s (0600, supervisor-owned)\n" path
           | Error e -> failwith (Idbox_vfs.Errno.message e)))
      files;
    let box =
      match
        Idbox.Box.create kernel ~supervisor_uid:sup.Idbox_kernel.Account.uid
          ~identity:(Idbox_identity.Principal.of_string identity) ()
      with
      | Ok b -> b
      | Error e -> failwith (Idbox_vfs.Errno.message e)
    in
    Printf.printf "identity box for %S: home=%s\n" identity (Idbox.Box.home box);
    let pid =
      Idbox.Box.spawn_main box
        ~main:(fun _ ->
          let home = Option.get (Libc.getenv "HOME") in
          Printf.printf "[box] whoami -> %s\n" (Libc.get_user_name ());
          Printf.printf "[box] pwd    -> %s\n" (Libc.getcwd ());
          List.iter
            (fun spec ->
              match String.index_opt spec '=' with
              | None -> ()
              | Some i ->
                let path = String.sub spec 0 i in
                (match Libc.read_file path with
                 | Ok text -> Printf.printf "[box] read %s -> %S (!)\n" path text
                 | Error e ->
                   Printf.printf "[box] read %s -> %s\n" path
                     (Idbox_vfs.Errno.to_string e)))
            files;
          (match Libc.write_file (home ^ "/notes") ~contents:"visitor data" with
           | Ok () -> Printf.printf "[box] write ~/notes -> ok\n"
           | Error e ->
             Printf.printf "[box] write ~/notes -> %s\n" (Idbox_vfs.Errno.to_string e));
          (match Libc.getacl home with
           | Ok acl -> Printf.printf "[box] getacl ~ ->\n%s" acl
           | Error _ -> ());
          0)
        ~args:[ "session" ]
    in
    Kernel.run kernel;
    Printf.printf "session exited %s; %d syscalls trapped\n"
      (match Kernel.exit_code kernel pid with
       | Some c -> string_of_int c
       | None -> "?")
      (Kernel.stats kernel).Idbox_kernel.Kernel.trapped;
    if trace then dump_trace kernel
  in
  let doc = "Run a demonstration identity-box session for an arbitrary identity." in
  Cmd.v (Cmd.info "session" ~doc)
    Term.(const run $ identity_arg $ files_arg $ trace_arg)

(* --- stats -------------------------------------------------------------- *)

let stats_cmd =
  let run trace =
    let kernel = Idbox_report.Report.metrics_workload () in
    print_endline (Idbox_report.Report.metrics_json kernel);
    if trace then
      print_endline (Idbox_report.Report.trace_json kernel)
  in
  let doc =
    "Run the representative boxed workload (including a Chirp exchange over \
     a deliberately lossy network, so fault and retry counters are \
     populated) and print the kernel-wide metrics registry as JSON (schema \
     idbox-metrics/1).  With $(b,--trace), also print the trace ring as \
     JSON."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ trace_arg)

(* --- shell -------------------------------------------------------------- *)

let shell_identity_arg =
  let doc = "The visiting identity." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"IDENTITY" ~doc)

let commands_arg =
  let doc = "Shell commands to run in sequence inside the box." in
  Arg.(value & pos_right 0 string [] & info [] ~docv:"COMMAND" ~doc)

let shell_cmd =
  let run identity commands =
    let module Kernel = Idbox_kernel.Kernel in
    let kernel = Kernel.create () in
    (match Idbox_apps.Coreutils.install kernel with
     | Ok () -> ()
     | Error e -> failwith (Idbox_vfs.Errno.message e));
    (match Idbox_apps.Shell.install kernel with
     | Ok () -> ()
     | Error e -> failwith (Idbox_vfs.Errno.message e));
    let sup =
      match Kernel.add_user kernel "supervisor" with
      | Ok e -> e
      | Error m -> failwith m
    in
    let box =
      match
        Idbox.Box.create kernel ~supervisor_uid:sup.Idbox_kernel.Account.uid
          ~identity:(Idbox_identity.Principal.of_string identity) ()
      with
      | Ok b -> b
      | Error e -> failwith (Idbox_vfs.Errno.message e)
    in
    let commands =
      if commands = [] then [ "whoami"; "pwd"; "ls"; "getacl ." ] else commands
    in
    match
      Idbox_apps.Shell.run_script kernel
        ~spawn:(fun ~main ~args -> Idbox.Box.spawn_main box ~main ~args)
        ~output:(Idbox.Box.home box ^ "/.transcript")
        commands
    with
    | Ok (code, transcript) ->
      print_string transcript;
      Printf.printf "(session exited %d; %d syscalls trapped)\n" code
        (Kernel.stats kernel).Idbox_kernel.Kernel.trapped
    | Error e -> failwith (Idbox_vfs.Errno.message e)
  in
  let doc = "Run shell commands inside an identity box (scripted session)." in
  Cmd.v (Cmd.info "shell" ~doc) Term.(const run $ shell_identity_arg $ commands_arg)

(* --- cluster ------------------------------------------------------------ *)

let cluster_nodes_arg =
  let doc = "Number of Chirp servers in the cluster (1-9)." in
  Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc)

let cluster_drop_arg =
  let doc = "Packet drop probability on every link (e.g. 0.1)." in
  Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P" ~doc)

let cluster_cmd =
  let run nodes drop trace =
    let module Clock = Idbox_kernel.Clock in
    let module Metrics = Idbox_kernel.Metrics in
    let module Network = Idbox_net.Network in
    let module Fault = Idbox_net.Fault in
    let module World = Idbox_cluster.World in
    let module Router = Idbox_cluster.Router in
    if nodes < 1 || nodes > 9 then failwith "--nodes must be 1..9";
    let hosts =
      [ "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta"; "eta"; "theta";
        "iota" ]
      |> List.filteri (fun i _ -> i < nodes)
      |> List.map (fun n -> n ^ ".grid.edu")
    in
    let tring = Idbox_kernel.Trace.ring ~capacity:4096 () in
    let w = World.create ~trace:tring () in
    List.iter
      (fun h ->
        match World.add_node w ~host:h with
        | Ok () -> ()
        | Error m -> failwith m)
      hosts;
    World.settle w;
    if drop > 0.0 then
      Network.set_fault_plan (World.net w)
        (Fault.plan ~seed:11L ~default_profile:(Fault.profile ~drop ()) ());
    Printf.printf "cluster up: %s (catalog %s, R=%d)\n"
      (String.concat ", " (World.members w))
      (World.catalog_addr w) (World.replicas w);
    (* An operator's membership view: per-node heartbeat age, remaining
       lease and the liveness those imply.  Liveness keeps drifting
       between refreshes — a dead node goes alive -> suspect -> dead
       without another catalog round trip. *)
    let module Mb = Idbox_cluster.Membership in
    let mb = Mb.create (World.net w) ~catalog:(World.catalog_addr w) in
    let print_health () =
      ignore (Mb.refresh mb);
      print_endline "node health:";
      List.iter
        (fun nh ->
          Printf.printf "  %-8s %-22s %-8s hb_age=%6.1fs lease_left=%6.1fs\n"
            nh.Mb.nh_name nh.Mb.nh_addr
            (Mb.liveness_name nh.Mb.nh_liveness)
            (Int64.to_float nh.Mb.nh_heartbeat_age_ns /. 1e9)
            (Int64.to_float nh.Mb.nh_lease_left_ns /. 1e9))
        (Mb.health mb)
    in
    print_health ();
    let r =
      match World.connect w ~credentials:[ World.issue w "Alice" ] with
      | Ok r -> r
      | Error m -> failwith m
    in
    Printf.printf "principal %s verified identical on %d shards\n"
      (Router.principal r) (List.length (Router.nodes r));
    let okv ctx = function
      | Ok v -> v
      | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
    in
    let dirs = [ "/data"; "/work"; "/scratch"; "/homes" ] in
    List.iter
      (fun d ->
        okv "mkdir" (Router.mkdir r d);
        okv "put" (Router.put r ~path:(d ^ "/hello") ~data:("hello from " ^ d));
        Printf.printf "  %-9s -> %s\n" d
          (match Router.node_for r d with Some n -> n | None -> "?"))
      dirs;
    List.iter
      (fun d ->
        Printf.printf "  get %s/hello -> %S\n" d
          (okv "get" (Router.get r (d ^ "/hello"))))
      dirs;
    (* Crash one member: reads fail over to the surviving replicas,
       the lease ages out, and the ring rebalances without it. *)
    (match World.members w with
     | _ :: _ :: _ ->
       (* Crash the primary of /data, so the next reads of it must
          fail over to the surviving replica. *)
       let victim =
         match Router.node_for r "/data" with Some n -> n | None -> assert false
       in
       Printf.printf "crashing %s (primary for /data)...\n" victim;
       World.crash w victim;
       (* Under message drop a forward can miss the replica these reads
          fail over to (the primary acknowledged the write anyway), so a
          read may answer ENOENT or EACCES: print its errno, do not
          raise. *)
       List.iter
         (fun d ->
           let v =
             match Router.get r (d ^ "/hello") with
             | Ok v -> Printf.sprintf "%S" v
             | Error e -> Idbox_vfs.Errno.to_string e
           in
           Printf.printf "  get %s/hello -> %s (failovers so far: %d)\n" d v
             (Router.failovers r))
         dirs;
       Clock.advance (World.clock w) 160_000_000_000L (* past half the lease *);
       World.tick w (* survivors heartbeat; the crashed node cannot *);
       print_health ();
       Clock.advance (World.clock w) 240_000_000_000L (* past the lease *);
       World.tick w;
       Router.sync r;
       Printf.printf "after lease expiry: members = %s\n"
         (String.concat ", " (Router.nodes r));
       print_health ();
       World.restart w victim;
       World.tick w;
       Router.sync r;
       Printf.printf "after restart + heartbeat: members = %s\n"
         (String.concat ", " (Router.nodes r))
     | _ -> ());
    let metrics = Network.metrics (World.net w) in
    print_endline "cluster counters:";
    List.iter
      (fun ctr ->
        let name = Metrics.counter_name ctr in
        let v = Metrics.counter_value ctr in
        if v > 0 && String.length name >= 8 && String.sub name 0 8 = "cluster." then
          Printf.printf "  %-28s %d\n" name v)
      (Metrics.counters metrics);
    if trace then begin
      let module Trace = Idbox_kernel.Trace in
      Printf.printf "trace: %d spans retained (%d emitted, %d dropped)\n"
        (Trace.length tring) (Trace.total tring) (Trace.dropped tring);
      Trace.iter tring (fun span -> Format.printf "  %a@." Trace.pp_span span)
    end
  in
  let doc =
    "Stand up an N-node sharded, replicated Chirp cluster behind the \
     identity-aware router and walk it through routing, replication, a \
     crash with read failover, lease-driven ejection and re-admission."
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(const run $ cluster_nodes_arg $ cluster_drop_arg $ trace_arg)

(* --- geo demo ----------------------------------------------------------- *)

let geo_bound_arg =
  let doc = "Staleness bound for the secondary-region reader, in ms." in
  Arg.(value & opt int 500 & info [ "bound" ] ~docv:"MS" ~doc)

let geo_cmd =
  let run bound_ms =
    let module Clock = Idbox_kernel.Clock in
    let module Metrics = Idbox_kernel.Metrics in
    let module Network = Idbox_net.Network in
    let module Fault = Idbox_net.Fault in
    let module World = Idbox_cluster.World in
    let module Geo = Idbox_cluster.Geo in
    let module Errno = Idbox_vfs.Errno in
    let okv ctx = function
      | Ok v -> v
      | Error e -> failwith (ctx ^ ": " ^ Errno.message e)
    in
    let clock = Clock.create () in
    let net = Network.create ~clock () in
    let ca = Idbox_auth.Ca.create ~name:"Grid CA" in
    let mk region hosts =
      let w =
        World.create ~net ~ca
          ~catalog_addr:("catalog." ^ region ^ ".grid.edu:9097")
          ~staleness_ns:8_000_000_000L
          ~heartbeat_interval_ns:2_000_000_000L ()
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
      Geo.link ~primary:"east" net [ ("east", east); ("west", west) ]
    in
    Geo.ship_now geo;
    let re = Geo.region geo "east" and rw = Geo.region geo "west" in
    Printf.printf "geo up: east (primary, epoch %d) <-WAL-> west (epoch %d)\n"
      (Geo.epoch re) (Geo.epoch rw);
    let e =
      match
        Geo.connect geo ~region:"east"
          ~credentials:[ World.issue east "Alice" ] ()
      with
      | Ok r -> r
      | Error m -> failwith m
    in
    let bound_ns = Int64.of_int (bound_ms * 1_000_000) in
    let w =
      match
        Geo.connect geo ~region:"west"
          ~credentials:[ World.issue west "Alice" ]
          ~policy:Geo.Stale ~bound_ns ()
      with
      | Ok r -> r
      | Error m -> failwith m
    in
    okv "mkdir" (Geo.mkdir e "/data");
    okv "put" (Geo.put e ~path:"/data/motd" ~data:"written in east");
    Printf.printf "east wrote /data/motd; shipping WAL segment west...\n";
    Geo.ship_now geo;
    Printf.printf "west applied through LSN %d (tip %d), read -> %S\n"
      (Geo.applied_lsn rw) (Geo.tip re)
      (okv "get" (Geo.get w "/data/motd"));
    Printf.printf "  (served locally: staleness %.1f ms, bound %d ms)\n"
      (Int64.to_float (Geo.staleness geo rw) /. 1e6)
      bound_ms;
    let step () =
      Clock.advance clock 200_000_000L;
      World.tick east;
      World.tick west;
      Geo.tick geo
    in
    (* Warm heartbeats, refresh the lease, then cut the WAN just
       ahead of the clock: the secondary enters the cut with a fresh
       staleness lease. *)
    for _ = 1 to 5 do
      step ()
    done;
    Geo.ship_now geo;
    let cut_at = Int64.add (Clock.now clock) 100_000_000L in
    Network.set_fault_plan net
      (Fault.plan ~seed:7L
         ~partitions:
           (Geo.wan_windows geo ~from_ns:cut_at
              ~until_ns:(Int64.add cut_at 60_000_000_000L)
              ~between:("east", "west"))
         ());
    Clock.advance clock 300_000_000L;
    Printf.printf "WAN cut between east and west.\n";
    (match Geo.get w "/data/motd" with
     | Ok v ->
       Printf.printf
         "west read of /data/motd during cut -> %S (staleness %.1f ms, \
          still in bound)\n"
         v
         (Int64.to_float (Geo.staleness geo rw) /. 1e6)
     | Error err ->
       Printf.printf "west read during cut -> %s\n" (Errno.message err));
    (* The primary keeps acking writes it can no longer ship. *)
    okv "put" (Geo.put e ~path:"/data/during-cut" ~data:"east only");
    Geo.ship_now geo;
    (* Age past the bound: the lease goes stale and the policy bites. *)
    Clock.advance clock (Int64.add bound_ns 1_000_000_000L);
    (match Geo.get w "/data/motd" with
     | Ok v -> Printf.printf "west read past bound -> %S\n" v
     | Error err ->
       Printf.printf "west read past the %d ms bound -> %s\n" bound_ms
         (Errno.message err));
    Printf.printf "promoting west (region survival)...\n";
    Geo.promote geo "west";
    okv "put" (Geo.put w ~path:"/data/failover" ~data:"written in west");
    Printf.printf
      "west now primary (epoch %d): wrote /data/failover, read -> %S\n"
      (Geo.epoch rw)
      (okv "get" (Geo.get w "/data/failover"));
    (* Heal: step through the cut (member heartbeats keep the regions'
       own leases alive); on the far side the deposed primary fences on
       first contact and is reconciled before resuming as a secondary. *)
    while Clock.now clock < Int64.add cut_at 62_000_000_000L do
      step ()
    done;
    let rec settle n =
      if
        n < 60
        && (Geo.role re = Geo.Primary || Geo.needs_reconcile re
           || Geo.applied_lsn re < Geo.tip rw)
      then (
        step ();
        settle (n + 1))
    in
    settle 0;
    for _ = 1 to 5 do
      step ()
    done;
    Printf.printf
      "WAN healed: east fenced (epoch %d) and reconciled; east read of \
       /data/failover -> %S\n"
      (Geo.epoch re)
      (okv "get" (Geo.get e "/data/failover"));
    let metrics = Network.metrics net in
    print_endline "geo counters:";
    List.iter
      (fun ctr ->
        let name = Metrics.counter_name ctr in
        let v = Metrics.counter_value ctr in
        if
          v > 0 && String.length name >= 12
          && String.sub name 0 12 = "cluster.geo."
        then Printf.printf "  %-32s %d\n" name v)
      (Metrics.counters metrics)
  in
  let doc =
    "Link two region worlds over a WAN, ship WAL segments between them, \
     serve bounded-staleness reads in the secondary region, cut the WAN, \
     promote the survivor and reconcile the deposed primary on heal."
  in
  Cmd.v (Cmd.info "geo" ~doc) Term.(const run $ geo_bound_arg)

(* --- delegate demo ------------------------------------------------------ *)

let delegate_cmd =
  let run () =
    let module Kernel = Idbox_kernel.Kernel in
    let module Program = Idbox_kernel.Program in
    let module Libc = Idbox_kernel.Libc in
    let module Metrics = Idbox_kernel.Metrics in
    let module World = Idbox_cluster.World in
    let module Router = Idbox_cluster.Router in
    let module Server = Idbox_chirp.Server in
    let module Audit = Idbox.Audit in
    let okv ctx = function
      | Ok v -> v
      | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
    in
    Kernel.with_fresh_programs (fun () ->
        let w = World.create () in
        List.iter
          (fun h ->
            match World.add_node w ~host:h with
            | Ok () -> ()
            | Error m -> failwith m)
          [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ];
        World.settle w;
        Printf.printf "cluster up: %s\n" (String.concat ", " (World.members w));
        Program.register "sim" (fun _ ->
            match
              Libc.write_file "out.dat"
                ~contents:("run by " ^ Libc.get_user_name ())
            with
            | Ok () -> 0
            | Error _ -> 1);
        let connect cn =
          match World.connect w ~credentials:[ World.issue w cn ] with
          | Ok r -> r
          | Error m -> failwith m
        in
        let ra = connect "Alice" in
        okv "mkdir" (Router.mkdir ra "/work");
        okv "put"
          (Router.put ra ~path:"/work/sim.exe" ~data:(Program.marker "sim"));
        Printf.printf "Alice staged /work/sim.exe (primary %s)\n"
          (match Router.node_for ra "/work" with Some n -> n | None -> "?");
        let rights = Idbox_acl.Rights.of_string_exn in
        let chain =
          [
            World.delegate w ~delegator:"Alice" ~delegatee:"Bob"
              ~rights:(rights "rxl") ~prefix:"/work" ();
            World.delegate w ~delegator:"Bob" ~delegatee:"Carol"
              ~rights:(rights "rx") ~prefix:"/work" ();
          ]
        in
        Printf.printf "chain: %s -[rxl /work]-> %s -[rx /work]-> %s\n"
          (World.principal_of "Alice") (World.principal_of "Bob")
          (World.principal_of "Carol");
        let rc = connect "Carol" in
        let code =
          okv "exec_delegated"
            (Router.exec_delegated rc ~chain ~path:"/work/sim.exe"
               ~args:[ "sim.exe" ] ())
        in
        Printf.printf "Carol ran /work/sim.exe under the chain: exit %d\n" code;
        Printf.printf "/work/out.dat -> %S  (the root delegator's identity)\n"
          (okv "get" (Router.get ra "/work/out.dat"));
        (match Router.get rc "/work/out.dat" with
         | Error e ->
           Printf.printf "Carol without the chain: %s\n"
             (Idbox_vfs.Errno.message e)
         | Ok _ -> print_endline "Carol without the chain: allowed (?)");
        (match Router.node_for rc "/work" with
         | Some primary ->
           let audit = Server.audit (World.server w primary) in
           Printf.printf "audit ring on %s:\n" primary;
           List.iter
             (fun ev ->
               let is_deleg =
                 String.length ev.Audit.ev_op >= 8
                 && String.equal (String.sub ev.Audit.ev_op 0 8) "delegate"
               in
               if is_deleg then
                 Printf.printf "  %-14s %-28s %s%s\n" ev.Audit.ev_op
                   ev.Audit.ev_identity ev.Audit.ev_path
                   (match ev.Audit.ev_path2 with
                    | Some p -> " -> " ^ p
                    | None -> ""))
             (Audit.events audit)
         | None -> ());
        let epoch = okv "revoke" (Router.revoke ra (World.principal_of "Alice")) in
        Printf.printf "Alice revoked her delegations cluster-wide (epoch %d)\n"
          epoch;
        (match
           Router.exec_delegated rc ~chain ~path:"/work/sim.exe"
             ~args:[ "sim.exe" ] ()
         with
         | Error e ->
           Printf.printf "Carol's chain after revocation: %s\n"
             (Idbox_vfs.Errno.message e)
         | Ok _ -> print_endline "chain survived revocation (?)");
        let metrics = Kernel.metrics (World.kernel w) in
        print_endline "delegation counters:";
        let has_prefix p name =
          String.length name >= String.length p
          && String.equal (String.sub name 0 (String.length p)) p
        in
        List.iter
          (fun ctr ->
            let name = Metrics.counter_name ctr in
            let v = Metrics.counter_value ctr in
            if
              v > 0
              && (has_prefix "auth.delegation." name
                 || has_prefix "enforce.chain." name
                 || has_prefix "chirp.delegated" name
                 || has_prefix "chirp.revocation" name)
            then Printf.printf "  %-32s %d\n" name v)
          (Metrics.counters metrics))
  in
  let doc =
    "Walk a 3-node cluster through delegated execution: Alice delegates to \
     Bob, Bob extends the chain to Carol, Carol runs Alice's program under \
     the attenuated chain (every hop audited), then a revocation kills the \
     chain cluster-wide."
  in
  Cmd.v (Cmd.info "delegate" ~doc) Term.(const run $ const ())

(* --- recovery demo ----------------------------------------------------- *)

let recovery_ops_arg =
  let doc = "Mutations to acknowledge before the crash." in
  Arg.(value & opt int 24 & info [ "ops" ] ~docv:"N" ~doc)

let recovery_cmd =
  let run ops =
    let module Clock = Idbox_kernel.Clock in
    let module Kernel = Idbox_kernel.Kernel in
    let module Account = Idbox_kernel.Account in
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
    let module World = Idbox_cluster.World in
    let module Router = Idbox_cluster.Router in
    let okv ctx = function
      | Ok v -> v
      | Error e -> failwith (ctx ^ ": " ^ Idbox_vfs.Errno.message e)
    in
    (* Act one: a server on a hostile disk.  Every crash tears the
       in-flight write, can lose unsynced tail records and flip bytes
       in the unsynced suffix — but the WAL syncs before every ack, so
       acknowledged mutations must all survive. *)
    let clock = Clock.create () in
    let kernel = Kernel.create ~clock () in
    let net = Network.create ~clock () in
    let owner = okv "account" (Result.map_error (fun m ->
        ignore m; Idbox_vfs.Errno.EIO)
        (Account.add (Kernel.accounts kernel) "chirpuser"))
    in
    Kernel.refresh_passwd kernel;
    let ca = Ca.create ~name:"Demo CA" in
    let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
    let root_acl =
      Idbox_acl.Acl.of_entries
        [
          Idbox_acl.Entry.make ~pattern:"globus:/O=Demo/*"
            (Idbox_acl.Rights.of_string_exn "rwl");
        ]
    in
    let wal =
      Wal.create ~seed:42L
        ~profile:(Fault.storage_profile ~torn_write:1.0 ~lose_tail:0.6 ~flip:0.4 ())
        ()
    in
    let server =
      okv "server"
        (Server.create ~kernel ~net ~addr:"demo.grid.edu:9094"
           ~owner_uid:owner.Account.uid ~export:"/tmp/demo" ~acceptor ~root_acl
           ~wal ~checkpoint_every:20 ())
    in
    let cert = Ca.issue ca (Subject.of_string_exn "/O=Demo/CN=Writer") in
    let c =
      match
        Client.connect net ~addr:"demo.grid.edu:9094"
          ~credentials:[ Credential.Gsi cert ]
      with
      | Ok c -> c
      | Error m -> failwith m
    in
    let path i = Printf.sprintf "/file%03d" i in
    for i = 0 to ops - 1 do
      okv "put" (Client.put c ~path:(path i) ~data:(Printf.sprintf "data-%03d" i))
    done;
    Printf.printf
      "recovery: %d mutations acknowledged; WAL holds %d records (%d bytes)\n"
      ops (Server.wal_records server) (Server.wal_bytes server);
    let m name = Metrics.counter_value_of (Kernel.metrics kernel) name in
    let replayed0 = m "chirp.recovery.replayed" in
    let torn0 = m "chirp.recovery.torn" in
    let loads0 = m "chirp.recovery.checkpoint_loads" in
    Server.crash server;
    let t0 = Clock.now clock in
    Server.restart server;
    Printf.printf
      "crash + restart: checkpoint_loads=%d replayed=%d torn=%d in %.3f ms\n"
      (m "chirp.recovery.checkpoint_loads" - loads0)
      (m "chirp.recovery.replayed" - replayed0)
      (m "chirp.recovery.torn" - torn0)
      (Int64.to_float (Int64.sub (Clock.now clock) t0) /. 1e6);
    let survived = ref 0 in
    for i = 0 to ops - 1 do
      match Client.get c (path i) with
      | Ok data when String.equal data (Printf.sprintf "data-%03d" i) ->
        incr survived
      | Ok _ | Error _ -> ()
    done;
    Printf.printf "read-back: %d/%d acknowledged files intact\n" !survived ops;
    if !survived <> ops then failwith "acknowledged mutation lost";
    (* Act two: a replica drifts behind a partition, and anti-entropy
       repairs it after the heal. *)
    print_newline ();
    let w = World.create () in
    List.iter
      (fun h ->
        match World.add_node w ~host:h with
        | Ok () -> ()
        | Error msg -> failwith msg)
      [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ];
    World.settle w;
    let r =
      match World.connect w ~credentials:[ World.issue w "Alice" ] with
      | Ok r -> r
      | Error msg -> failwith msg
    in
    let wclock = World.clock w in
    let dirs = [ "/d0"; "/d1"; "/d2"; "/d3" ] in
    List.iter
      (fun d ->
        okv "mkdir" (Router.mkdir r d);
        okv "put" (Router.put r ~path:(d ^ "/f") ~data:("base " ^ d)))
      dirs;
    let from_ns = Clock.now wclock in
    let until_ns = Int64.add from_ns 30_000_000_000L in
    Network.set_fault_plan (World.net w)
      (Fault.plan ~seed:11L
         ~partitions:
           [
             Fault.window ~from_ns ~until_ns
               ~between:("gamma.grid.edu", "alpha.grid.edu");
             Fault.window ~from_ns ~until_ns
               ~between:("gamma.grid.edu", "beta.grid.edu");
           ]
         ());
    Printf.printf "anti-entropy: gamma partitioned from its peers for 30 s\n";
    List.iter
      (fun d -> okv "put" (Router.put r ~path:(d ^ "/f") ~data:("new " ^ d)))
      dirs;
    let wm name =
      Metrics.counter_value_of (Network.metrics (World.net w)) name
    in
    Printf.printf
      "divergent overwrites done: repair.pending=%d (failed forwards noted)\n"
      (wm "cluster.repair.pending");
    while Int64.compare (Clock.now wclock) until_ns < 0 do
      Clock.advance wclock 1_000_000_000L;
      World.tick w
    done;
    Clock.advance wclock 1_000_000_000L;
    World.tick w;
    Printf.printf
      "healed + one tick: repair.diverged=%d repair.push=%d repair.clean=%d\n"
      (wm "cluster.repair.diverged") (wm "cluster.repair.push")
      (wm "cluster.repair.clean");
    List.iter
      (fun d ->
        let key = String.sub d 1 (String.length d - 1) in
        let digests =
          List.filter_map
            (fun name ->
              match Server.subtree_digest (World.server w name) key with
              | Ok dg -> Some (name ^ "=" ^ String.sub dg 0 8)
              | Error _ -> None)
            (World.members w)
        in
        Printf.printf "  %s holders agree: %s\n" d
          (String.concat " " digests))
      dirs
  in
  let doc =
    "Walk the durability story end to end: acknowledged mutations survive a \
     crash on a hostile disk (WAL replay from the latest checkpoint), and a \
     replica that diverged behind a partition is repaired by anti-entropy \
     after the heal."
  in
  Cmd.v (Cmd.info "recovery" ~doc) Term.(const run $ recovery_ops_arg)

(* --- acl check --------------------------------------------------------- *)

let entries_arg =
  let doc = "ACL entries, e.g. 'globus:/O=X/* rl' (repeatable)." in
  Arg.(value & opt_all string [] & info [ "entry" ] ~docv:"ENTRY" ~doc)

let who_arg =
  let doc = "Principal to evaluate." in
  Arg.(required & opt (some string) None & info [ "who" ] ~docv:"PRINCIPAL" ~doc)

let acl_cmd =
  let run entries who =
    let acl =
      List.fold_left
        (fun acc line ->
          match Idbox_acl.Entry.of_line line with
          | Ok e -> Idbox_acl.Acl.set_entry acc e
          | Error m -> failwith m)
        Idbox_acl.Acl.empty entries
    in
    let principal = Idbox_identity.Principal.of_string who in
    let rights = Idbox_acl.Acl.rights_of acl principal in
    Printf.printf "%s holds: %s\n" who (Idbox_acl.Rights.to_string rights);
    match Idbox_acl.Acl.reserve_for acl principal with
    | Some grant ->
      Printf.printf "%s may reserve directories with: %s\n" who
        (Idbox_acl.Rights.to_string grant)
    | None -> ()
  in
  let doc = "Evaluate an ACL against a principal from the command line." in
  Cmd.v (Cmd.info "acl" ~doc) Term.(const run $ entries_arg $ who_arg)

let () =
  let doc = "identity boxing: consistent global identity without local accounts" in
  let info = Cmd.info "idbox" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ report_cmd; schemes_cmd; session_cmd; shell_cmd; stats_cmd; cluster_cmd;
            geo_cmd; delegate_cmd; recovery_cmd; acl_cmd ]))
