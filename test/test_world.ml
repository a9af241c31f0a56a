(* The capstone integration test: a small grid world exercising every
   subsystem together — catalog discovery, CAS-gated admission, two
   Chirp servers, an identity box with the whole grid mounted, the
   simulated shell with pipelines, remote exec, and the audit trail. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Program = Idbox_kernel.Program
module Clock = Idbox_kernel.Clock
module Network = Idbox_net.Network
module Ca = Idbox_auth.Ca
module Cas = Idbox_auth.Cas
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Catalog = Idbox_chirp.Catalog
module Chirp_fs = Idbox_chirp.Chirp_fs
module Shell = Idbox_apps.Shell
module Coreutils = Idbox_apps.Coreutils
module Box = Idbox.Box
module Audit = Idbox.Audit
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Principal = Idbox_identity.Principal
module Errno = Idbox_vfs.Errno
module Metrics = Idbox_kernel.Metrics
module World = Idbox_cluster.World

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.message e)

let okm ctx = function Ok v -> v | Error m -> Alcotest.failf "%s: %s" ctx m

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1))
  in
  nn = 0 || go 0

let a_day_on_the_grid () =
  Kernel.with_fresh_programs (fun () ->
      (* ---- the grid fabric ------------------------------------------ *)
      let clock = Clock.create () in
      let net = Network.create ~clock () in
      let _catalog = Catalog.create net ~addr:"catalog:9097" in
      let ca = Ca.create ~name:"Campus CA" in
      let cas = Cas.create ~name:"plasma-cas" in
      let fred = Principal.of_string "globus:/O=Campus/CN=Fred" in
      Cas.add_member cas ~community:"plasma" fred;

      (* ---- two servers, CAS-gated ----------------------------------- *)
      let make_server host =
        let kernel = Kernel.create ~clock () in
        let owner = okm "user" (Kernel.add_user kernel ("op-" ^ host)) in
        let acceptor =
          Negotiate.acceptor ~trusted_cas:[ ca ]
            ~admit:(Cas.admit cas ~communities:[ "plasma" ] ~now:0L)
            ()
        in
        let root_acl =
          Acl.of_entries
            [
              Entry.make ~pattern:"globus:/O=Campus/*"
                ~reserve:(Rights.of_string_exn "rwlaxd")
                (Rights.of_string_exn "rlx");
            ]
        in
        let server =
          ok "server"
            (Server.create ~kernel ~net ~addr:(host ^ ":9094")
               ~owner_uid:owner.Account.uid
               ~export:("/home/op-" ^ host ^ "/export")
               ~acceptor ~root_acl ())
        in
        okm "register"
          (Catalog.register net ~catalog:"catalog:9097" ~name:host
             ~server_addr:(Server.addr server) ~owner:("unix:op-" ^ host));
        (kernel, server)
      in
      let _alpha = make_server "alpha" in
      let _beta = make_server "beta" in

      (* The simulation program staged onto alpha and exec'd remotely. *)
      Program.register "reduce" (fun _ ->
          let input = Libc.check "in" (Libc.read_file "raw.dat") in
          Libc.compute_us 10_000.;
          Libc.check "out"
            (Libc.write_file "reduced.dat"
               ~contents:
                 (Printf.sprintf "%d bytes reduced by %s" (String.length input)
                    (Libc.get_user_name ())));
          0);

      (* ---- an outsider is refused everywhere ------------------------- *)
      let eve_cert = Ca.issue ca (Subject.of_string_exn "/O=Campus/CN=Eve") in
      (match
         Client.connect net ~addr:"alpha:9094"
           ~credentials:[ Credential.Gsi eve_cert ]
       with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "eve admitted without membership");

      (* ---- Fred's laptop box with the discovered grid mounted -------- *)
      let fred_cert = Ca.issue ca (Subject.of_string_exn "/O=Campus/CN=Fred") in
      let creds = [ Credential.Gsi fred_cert ] in
      let mounts =
        okm "mounts" (Chirp_fs.mounts_from_catalog net ~catalog:"catalog:9097" ~credentials:creds)
      in
      Alcotest.(check int) "both servers admitted fred" 2 (List.length mounts);
      let laptop = Kernel.create ~clock () in
      ok "coreutils" (Coreutils.install laptop);
      ok "shell" (Shell.install laptop);
      let fred_acct = okm "fred" (Kernel.add_user laptop "fred") in
      let box =
        ok "box"
          (Box.create laptop ~supervisor_uid:fred_acct.Account.uid ~identity:fred
             ~mounts ~audit:true ())
      in

      (* Stage data onto alpha from inside the box, via the shell. *)
      let code, transcript =
        ok "session"
          (Shell.run_script laptop
             ~spawn:(fun ~main ~args -> Box.spawn_main box ~main ~args)
             ~output:(Box.home box ^ "/.session")
             [
               "whoami";
               "mkdir /chirp/alpha/run7";
               "echo ion temperatures from run seven > /chirp/alpha/run7/raw.dat";
               "cat /chirp/alpha/run7/raw.dat | wc";
               "mkdir /chirp/beta/backups";
               "cp /chirp/alpha/run7/raw.dat /chirp/beta/backups/backup.dat";
               "cat /home/fred/.bashrc";
               "echo done";
             ])
      in
      Alcotest.(check int) "session ok" 0 code;
      (* whoami shows the visitor's global name (its colon-free passwd
         form: the subject DN). *)
      Alcotest.(check bool) "identity consistent" true
        (contains transcript "/O=Campus/CN=Fred");
      Alcotest.(check bool) "piped count of remote file" true
        (contains transcript "1 5 32 -");
      Alcotest.(check bool) "missing local file reported" true
        (contains transcript "No such file");

      (* ---- remote exec on alpha, output fetched ---------------------- *)
      let c = okm "connect" (Client.connect net ~addr:"alpha:9094" ~credentials:creds) in
      ok "stage exe"
        (Client.put c ~path:"/run7/reduce.exe" ~data:(Program.marker "reduce"));
      Alcotest.(check int) "remote exec" 0
        (ok "exec" (Client.exec c ~path:"/run7/reduce.exe" ~args:[ "reduce" ] ()));
      Alcotest.(check string) "reduced output names fred"
        "32 bytes reduced by globus:/O=Campus/CN=Fred"
        (ok "get" (Client.get c "/run7/reduced.dat"));

      (* Integrity across the two copies. *)
      let beta = okm "connect beta" (Client.connect net ~addr:"beta:9094" ~credentials:creds) in
      Alcotest.(check string) "backup checksum matches"
        (ok "sum a" (Client.checksum c "/run7/raw.dat"))
        (ok "sum b" (Client.checksum beta "/backups/backup.dat"));

      (* ---- the audit trail saw the whole session --------------------- *)
      (match Box.audit_trail box with
       | None -> Alcotest.fail "no audit"
       | Some trail ->
         Alcotest.(check bool) "events recorded" true (Audit.length trail > 5);
         Alcotest.(check bool) "remote paths in trail" true
           (List.exists
              (fun (ev : Audit.event) ->
                contains ev.Audit.ev_path "/chirp/alpha/run7")
              (Audit.events trail))))

(* Scale a member out and back in.  [World.remove_node] drops its
   catalog lease at once (no waiting out the lease), and re-adding the
   same host reuses its [chirp_<name>] account and serves again. *)
let remove_then_readd_member () =
  let w = World.create () in
  okm "alpha" (World.add_node w ~host:"alpha.grid.edu");
  okm "beta" (World.add_node w ~host:"beta.grid.edu");
  World.settle w;
  let accounts = Kernel.accounts (World.kernel w) in
  let alpha_uid =
    match Account.find accounts "chirp_alpha" with
    | Some e -> e.Account.uid
    | None -> Alcotest.fail "no chirp_alpha account"
  in
  Alcotest.(check int) "alpha serves as its account" alpha_uid
    (Server.owner_uid (World.server w "alpha"));
  let deregistered () =
    Metrics.counter_value_of (Network.metrics (World.net w)) "catalog.deregister"
  in
  let advertised name =
    List.exists
      (fun e -> String.equal e.Catalog.name name)
      (Catalog.entries (World.catalog w))
  in
  Alcotest.(check bool) "alpha advertised" true (advertised "alpha");
  okm "remove" (World.remove_node w "alpha");
  Alcotest.(check int) "the departure deregistered its lease" 1 (deregistered ());
  Alcotest.(check bool) "alpha no longer advertised" false (advertised "alpha");
  Alcotest.(check bool) "beta still advertised" true (advertised "beta");
  Alcotest.(check (list string)) "alpha gone" [ "beta" ] (World.members w);
  let accounts_before = Account.count accounts in
  okm "re-add" (World.add_node w ~host:"alpha.grid.edu");
  World.settle w;
  Alcotest.(check (list string)) "alpha back" [ "alpha"; "beta" ] (World.members w);
  Alcotest.(check int) "no new account" accounts_before (Account.count accounts);
  Alcotest.(check int) "the same account" alpha_uid
    (Server.owner_uid (World.server w "alpha"));
  Alcotest.(check bool) "advertised again" true (advertised "alpha");
  (* The re-added server answers on its own address. *)
  let c =
    okm "connect"
      (Client.connect (World.net w) ~addr:"alpha.grid.edu:9094"
         ~credentials:[ World.issue w "Fred" ])
  in
  ok "mkdir" (Client.mkdir c "/fred");
  ok "put" (Client.put c ~path:"/fred/note" ~data:"back");
  Alcotest.(check string) "served again" "back" (ok "get" (Client.get c "/fred/note"))

let suite =
  [
    Alcotest.test_case "a day on the grid" `Slow a_day_on_the_grid;
    Alcotest.test_case "remove then re-add a member" `Quick
      remove_then_readd_member;
  ]
