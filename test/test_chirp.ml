module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Program = Idbox_kernel.Program
module Clock = Idbox_kernel.Clock
module Network = Idbox_net.Network
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Catalog = Idbox_chirp.Catalog
module Protocol = Idbox_chirp.Protocol
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno
module Fs = Idbox_vfs.Fs
module Fault = Idbox_net.Fault
module World = Idbox_cluster.World
module Router = Idbox_cluster.Router

let errno = Alcotest.testable Errno.pp Errno.equal

type world = {
  net : Network.t;
  server : Server.t;
  ca : Ca.t;
  kernel : Kernel.t;
}

(* A host running a Chirp server whose root ACL gives UnivNowhere users
   the reserve right, plus read/list to anyone at nowhere.edu. *)
let make_world () =
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  let kernel = Kernel.create ~clock () in
  let owner =
    match Account.add (Kernel.accounts kernel) "chirpuser" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"UnivNowhere CA" in
  let root_acl =
    Acl.of_entries
      [
        Entry.make ~pattern:"globus:/O=UnivNowhere/*"
          ~reserve:(Rights.of_string_exn "rwlaxd")
          (Rights.of_string_exn "rl");
        Entry.make ~pattern:"hostname:*.nowhere.edu" (Rights.of_string_exn "rl");
      ]
  in
  let acceptor =
    Negotiate.acceptor ~trusted_cas:[ ca ]
      ~host_ok:(fun h -> Idbox_identity.Wildcard.literal_matches "*.nowhere.edu" h)
      ()
  in
  let server =
    match
      Server.create ~kernel ~net ~addr:"alpha.grid.edu:9094"
        ~owner_uid:owner.Account.uid ~export:"/tmp/export" ~acceptor ~root_acl ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  { net; server; ca; kernel }

let connect_fred w =
  let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  match
    Client.connect w.net ~addr:"alpha.grid.edu:9094"
      ~credentials:[ Credential.Gsi cert ]
  with
  | Ok c -> c
  | Error m -> Alcotest.fail m

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let figure3_full_scenario () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      Program.register "sim" (fun _ ->
          Libc.compute 10_000_000L;
          match
            Libc.write_file "out.dat"
              ~contents:("by " ^ Libc.get_user_name ())
          with
          | Ok () -> 0
          | Error _ -> 1);
      let c = connect_fred w in
      Alcotest.(check string) "principal" "globus:/O=UnivNowhere/CN=Fred"
        (Client.principal c);
      Alcotest.(check string) "method" "globus" (Client.auth_method c);
      Alcotest.(check string) "whoami" "globus:/O=UnivNowhere/CN=Fred"
        (ok "whoami" (Client.whoami c));
      (* 1. mkdir /work under the reserve right. *)
      ok "mkdir" (Client.mkdir c "/work");
      (* 2. put sim.exe *)
      ok "put" (Client.put c ~path:"/work/sim.exe" ~data:(Program.marker "sim"));
      (* 3. exec sim.exe in an identity box under Fred's name. *)
      Alcotest.(check int) "exit code" 0
        (ok "exec" (Client.exec c ~path:"/work/sim.exe" ~args:[ "sim.exe" ] ()));
      Alcotest.(check int) "one exec served" 1 (Server.exec_count w.server);
      (* 4. get out.dat — written by the boxed process under Fred's
         identity. *)
      Alcotest.(check string) "output" "by globus:/O=UnivNowhere/CN=Fred"
        (ok "get" (Client.get c "/work/out.dat"));
      (* 5. clean up. *)
      ok "unlink out" (Client.unlink c "/work/out.dat");
      ok "unlink exe" (Client.unlink c "/work/sim.exe");
      ok "rmdir" (Client.rmdir c "/work"))

let reserve_mints_private_namespace () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/mine");
  (* The fresh directory's ACL names Fred alone. *)
  let acl = ok "getacl" (Client.getacl c "/mine") in
  Alcotest.(check bool) "fred owns" true
    (String.length acl > 0
    && String.sub acl 0 (String.length "globus:/O=UnivNowhere/CN=Fred")
       = "globus:/O=UnivNowhere/CN=Fred");
  (* Jane (same org) cannot read into it until granted. *)
  let jane_cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Jane") in
  let jane =
    match
      Client.connect w.net ~addr:"alpha.grid.edu:9094"
        ~credentials:[ Credential.Gsi jane_cert ]
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  ok "fred puts" (Client.put c ~path:"/mine/data" ~data:"private");
  (match Client.get jane "/mine/data" with
   | Error Errno.EACCES -> ()
   | Ok _ -> Alcotest.fail "jane read fred's data"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  (* Fred grants Jane read+list via setacl (he holds a there). *)
  ok "grant" (Client.setacl c ~path:"/mine" ~entry:"globus:/O=UnivNowhere/CN=Jane rl");
  Alcotest.(check string) "jane reads after grant" "private"
    (ok "jane get" (Client.get jane "/mine/data"))

let hostname_users_read_only () =
  let w = make_world () in
  let laptop =
    match
      Client.connect w.net ~addr:"alpha.grid.edu:9094"
        ~credentials:[ Credential.Host "laptop.cs.nowhere.edu" ]
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "hostname principal" "hostname:laptop.cs.nowhere.edu"
    (Client.principal laptop);
  (* rl only: list works, mkdir/put do not. *)
  ignore (ok "readdir" (Client.readdir laptop "/"));
  (match Client.mkdir laptop "/lhome" with
   | Error Errno.EACCES -> ()
   | Ok () -> Alcotest.fail "hostname user created directory"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  (match Client.put laptop ~path:"/f" ~data:"x" with
   | Error Errno.EACCES -> ()
   | Ok () -> Alcotest.fail "hostname user wrote"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e))

let untrusted_ca_rejected () =
  let w = make_world () in
  let rogue = Ca.create ~name:"Rogue CA" in
  let cert = Ca.issue rogue (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  match
    Client.connect w.net ~addr:"alpha.grid.edu:9094"
      ~credentials:[ Credential.Gsi cert ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rogue CA accepted"

let bogus_token_rejected () =
  let w = make_world () in
  let payload =
    Idbox_chirp.Protocol.encode_request
      (Idbox_chirp.Protocol.Op
         { token = "forged"; req_id = ""; op = Idbox_chirp.Protocol.Whoami })
  in
  match Network.call w.net ~addr:"alpha.grid.edu:9094" payload with
  | Error e -> Alcotest.fail (Errno.to_string e)
  | Ok response ->
    (match Idbox_chirp.Protocol.decode_response response with
     | Ok (Idbox_chirp.Protocol.R_error (Errno.ESTALE, _)) -> ()
     | Ok _ -> Alcotest.fail "forged token worked"
     | Error m -> Alcotest.fail m)

(* A wire path is anchored under the export: ".." may not climb out,
   an extra '/' does not reach the host's root, and a symlink planted
   in the export cannot lead into a sibling directory whose name
   extends the export's ("/tmp/exportb" beside "/tmp/export"). *)
let path_escape_blocked () =
  let w = make_world () in
  let c = connect_fred w in
  let fs = Kernel.fs w.kernel in
  let plant r = match r with Ok () -> () | Error e -> Alcotest.fail (Errno.to_string e) in
  plant (Fs.write_file fs ~uid:0 "/tmp/export/x" "inside");
  plant (Fs.write_file fs ~uid:0 "/x" "host");
  plant (Fs.mkdir_p fs ~uid:0 "/tmp/exportb");
  plant (Fs.write_file fs ~uid:0 "/tmp/exportb/secret" "sibling");
  plant (Fs.symlink fs ~uid:0 ~target:"/tmp/exportb" "/tmp/export/sib");
  let show = function Ok data -> data | Error e -> Errno.to_string e in
  List.iter
    (fun (path, want) ->
      Alcotest.(check string) (Printf.sprintf "get %S" path) want (show (Client.get c path)))
    [ ("/../etc/passwd", "EACCES"); ("a/../../x", "EACCES"); ("/a/../../x", "EACCES");
      ("//x", "inside"); ("x", "inside"); ("/sib/secret", "EACCES"); ("sib/secret", "EACCES");
      ("//sib/secret", "EACCES") ];
  (* The empty path and "/" both name the export root. *)
  let root = ok "readdir /" (Client.readdir c "/") in
  Alcotest.(check bool) "root lists x" true (List.mem "x" root);
  Alcotest.(check (list string)) "readdir \"\"" root (ok "readdir \"\"" (Client.readdir c ""))

let exec_requires_x_right () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      Program.register "tool" (fun _ -> 0);
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/w");
      ok "put" (Client.put c ~path:"/w/t.exe" ~data:(Program.marker "tool"));
      (* Fred holds x in his reserved dir: allowed. *)
      Alcotest.(check int) "fred execs" 0
        (ok "exec" (Client.exec c ~path:"/w/t.exe" ~args:[ "t" ] ()));
      (* Jane holds nothing there: denied. *)
      let jane_cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Jane") in
      let jane =
        match
          Client.connect w.net ~addr:"alpha.grid.edu:9094"
            ~credentials:[ Credential.Gsi jane_cert ]
        with
        | Ok c -> c
        | Error m -> Alcotest.fail m
      in
      match Client.exec jane ~path:"/w/t.exe" ~args:[ "t" ] () with
      | Error Errno.EACCES -> ()
      | Ok _ -> Alcotest.fail "jane executed without x"
      | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e))

(* Nothing on the server can wait for a remote exec's process, so the
   exec frees it once the exit code is read: repeated execs must leave
   the kernel's process table where it was. *)
let remote_execs_free_processes () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      Program.register "tool" (fun _ -> 0);
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/w");
      ok "put" (Client.put c ~path:"/w/t.exe" ~data:(Program.marker "tool"));
      let exec () =
        if ok "exec" (Client.exec c ~path:"/w/t.exe" ~args:[ "t" ] ()) <> 0
        then Alcotest.fail "nonzero exit"
      in
      exec ();
      let procs () = List.length (Kernel.process_states w.kernel) in
      let before = procs () in
      for _ = 1 to 50 do
        exec ()
      done;
      Alcotest.(check int) "50 execs leave the process table as it was"
        before (procs ()))

let rename_and_stat () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/r");
  ok "put" (Client.put c ~path:"/r/a" ~data:"abc");
  let st = ok "stat" (Client.stat c "/r/a") in
  Alcotest.(check string) "kind" "file" st.Idbox_chirp.Protocol.ws_kind;
  Alcotest.(check int) "size" 3 st.Idbox_chirp.Protocol.ws_size;
  ok "rename" (Client.rename c ~src:"/r/a" ~dst:"/r/b");
  (match Client.stat c "/r/a" with
   | Error Errno.ENOENT -> ()
   | Ok _ -> Alcotest.fail "src still there"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  Alcotest.(check (list string)) "listing" [ "b" ] (ok "readdir" (Client.readdir c "/r"))

let acl_file_invisible_remotely () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/v");
  ok "put" (Client.put c ~path:"/v/f" ~data:"x");
  let names = ok "readdir" (Client.readdir c "/v") in
  Alcotest.(check (list string)) "no acl file" [ "f" ] names;
  (match Client.get c "/v/.__acl" with
   | Error Errno.EACCES -> ()
   | Ok _ -> Alcotest.fail "read acl file remotely"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  (match Client.put c ~path:"/v/.__acl" ~data:"unix:eve rwlxad" with
   | Error Errno.EACCES -> ()
   | Ok () -> Alcotest.fail "overwrote acl file remotely"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  (* The name is refused before the filesystem sees it, in a namespace
     Fred owns and at the export root alike. *)
  List.iter
    (fun path ->
      match Client.mkdir c path with
      | Error Errno.EACCES -> ()
      | Ok () -> Alcotest.failf "mkdir %s made a directory named like an acl file" path
      | Error e -> Alcotest.failf "mkdir %s: unexpected %s" path (Errno.to_string e))
    [ "/v/.__acl"; "/.__acl" ]

let checksum_integrity () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/sum");
  let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  ok "put" (Client.put c ~path:"/sum/blob" ~data);
  let remote_sum = ok "checksum" (Client.checksum c "/sum/blob") in
  Alcotest.(check string) "matches local md5" (Digest.to_hex (Digest.string data))
    remote_sum;
  (* An overwrite of the same length moves the answer: the server's
     per-file memo is cleared by the write, whatever the size. *)
  let data' = String.map (fun ch -> Char.chr ((Char.code ch + 1) land 0xff)) data in
  ok "overwrite" (Client.put c ~path:"/sum/blob" ~data:data');
  let second = ok "checksum" (Client.checksum c "/sum/blob") in
  Alcotest.(check bool) "overwrite changes the checksum" false
    (String.equal remote_sum second);
  Alcotest.(check string) "matches the new md5" (Digest.to_hex (Digest.string data'))
    second;
  (* Still subject to ACLs: a read-only-less user cannot checksum. *)
  (match Client.checksum c "/sum/.__acl" with
   | Error Errno.EACCES -> ()
   | Ok _ -> Alcotest.fail "checksummed the acl file"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  (match Client.checksum c "/sum/missing" with
   | Error Errno.ENOENT -> ()
   | Ok _ -> Alcotest.fail "checksummed a missing file"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e))

let sessions_tracked () =
  let w = make_world () in
  let _fred = connect_fred w in
  let laptop =
    Client.connect w.net ~addr:"alpha.grid.edu:9094"
      ~credentials:[ Credential.Host "laptop.cs.nowhere.edu" ]
  in
  (match laptop with Ok _ -> () | Error m -> Alcotest.fail m);
  let sessions = Server.sessions w.server in
  Alcotest.(check int) "two sessions" 2 (List.length sessions);
  Alcotest.(check bool) "fred present" true
    (List.exists
       (fun (p, m) ->
         String.equal p "globus:/O=UnivNowhere/CN=Fred" && String.equal m "globus")
       sessions)

let catalog_register_list () =
  let w = make_world () in
  let catalog = Catalog.create w.net ~addr:"catalog.grid.edu:9097" in
  (match
     Catalog.register w.net ~catalog:"catalog.grid.edu:9097" ~name:"alpha"
       ~server_addr:"alpha.grid.edu:9094" ~owner:"unix:chirpuser"
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (match Catalog.list w.net ~catalog:"catalog.grid.edu:9097" with
   | Ok [ entry ] ->
     Alcotest.(check string) "name" "alpha" entry.Catalog.name;
     Alcotest.(check string) "addr" "alpha.grid.edu:9094" entry.Catalog.server_addr;
     (* The discovered address actually serves. *)
     let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
     (match
        Client.connect w.net ~addr:entry.Catalog.server_addr
          ~credentials:[ Credential.Gsi cert ]
      with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
   | Ok entries -> Alcotest.failf "%d entries" (List.length entries)
   | Error m -> Alcotest.fail m);
  Catalog.shutdown catalog

let shutdown_stops_serving () =
  let w = make_world () in
  Server.shutdown w.server;
  let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  match
    Client.connect w.net ~addr:"alpha.grid.edu:9094"
      ~credentials:[ Credential.Gsi cert ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "server still serving"

let remote_mount_through_box () =
  (* A boxed process on one host reads a Chirp server transparently via
     /chirp (paper §4). *)
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/pub");
      ok "put" (Client.put c ~path:"/pub/input.dat" ~data:"grid data");
      (* The client host, with a box mounting the server. *)
      let client_kernel = Kernel.create ~clock:(Network.clock w.net) () in
      let laptop_user =
        match Account.add (Kernel.accounts client_kernel) "fred" with
        | Ok e -> e
        | Error m -> Alcotest.fail m
      in
      let box =
        match
          Idbox.Box.create client_kernel ~supervisor_uid:laptop_user.Account.uid
            ~identity:(Idbox_identity.Principal.of_string "globus:/O=UnivNowhere/CN=Fred")
            ~mounts:[ ("/chirp/alpha.grid.edu", Client.to_remote c) ]
            ()
        with
        | Ok b -> b
        | Error e -> Alcotest.fail (Errno.to_string e)
      in
      let pid =
        Idbox.Box.spawn_main box
          ~main:(fun _ ->
            (* Ordinary file operations, remote bits. *)
            (match Libc.read_file "/chirp/alpha.grid.edu/pub/input.dat" with
             | Ok "grid data" -> ()
             | Ok _ | Error _ -> Libc.exit 1);
            (match Libc.write_file "/chirp/alpha.grid.edu/pub/result.dat"
                     ~contents:"computed" with
             | Ok () -> ()
             | Error _ -> Libc.exit 2);
            0)
          ~args:[ "gridjob" ]
      in
      Kernel.run client_kernel;
      Alcotest.(check (option int)) "boxed grid job" (Some 0)
        (Kernel.exit_code client_kernel pid);
      (* The write arrived on the server. *)
      Alcotest.(check string) "server has result" "computed"
        (ok "get" (Client.get c "/pub/result.dat")))

let acl_management_through_mount () =
  (* A boxed process administers its remote ACLs with ordinary setacl /
     getacl calls routed through the /chirp mount — consistent global
     identity end to end: the same principal name works in the box, on
     the wire, and in the server's ACL files. *)
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/proj");
  ok "put" (Client.put c ~path:"/proj/data" ~data:"shared bits");
  let client_kernel = Kernel.create ~clock:(Network.clock w.net) () in
  let user =
    match Kernel.add_user client_kernel "fred" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  let box =
    match
      Idbox.Box.create client_kernel ~supervisor_uid:user.Account.uid
        ~identity:(Idbox_identity.Principal.of_string "globus:/O=UnivNowhere/CN=Fred")
        ~mounts:[ ("/chirp/alpha", Client.to_remote c) ]
        ()
    with
    | Ok b -> b
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  let pid =
    Idbox.Box.spawn_main box
      ~main:(fun _ ->
        (* Read the remote ACL. *)
        (match Libc.getacl "/chirp/alpha/proj" with
         | Ok text ->
           if String.length text = 0 then Libc.exit 1
         | Error _ -> Libc.exit 2);
        (* Grant Jane read+list, remotely, from inside the box. *)
        (match
           Libc.setacl ~path:"/chirp/alpha/proj"
             ~entry:"globus:/O=UnivNowhere/CN=Jane rl"
         with
         | Ok () -> ()
         | Error _ -> Libc.exit 3);
        (* Rename within the mount. *)
        (match
           Libc.rename ~src:"/chirp/alpha/proj/data" ~dst:"/chirp/alpha/proj/data.v2"
         with
         | Ok () -> ()
         | Error _ -> Libc.exit 4);
        0)
      ~args:[ "admin" ]
  in
  Kernel.run client_kernel;
  Alcotest.(check (option int)) "boxed remote admin" (Some 0)
    (Kernel.exit_code client_kernel pid);
  (* Jane can now read via her own session, under her own name. *)
  let jane_cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Jane") in
  let jane =
    match
      Client.connect w.net ~addr:"alpha.grid.edu:9094"
        ~credentials:[ Credential.Gsi jane_cert ]
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "jane reads renamed file" "shared bits"
    (ok "jane get" (Client.get jane "/proj/data.v2"))

let box_spawn_from_path () =
  (* Box.spawn (the Chirp exec path): executes a staged program file,
     honouring the execute right. *)
  Kernel.with_fresh_programs (fun () ->
      let k = Kernel.create () in
      let sup = match Kernel.add_user k "dthain" with Ok e -> e | Error m -> Alcotest.fail m in
      Program.register "tool" (fun _ -> 5);
      (match
         Idbox_vfs.Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/bin/tool.exe"
           (Program.marker "tool")
       with
       | Ok () -> () | Error e -> Alcotest.fail (Errno.to_string e));
      let box =
        match
          Idbox.Box.create k ~supervisor_uid:sup.Account.uid
            ~identity:(Idbox_identity.Principal.of_string "Visitor") ()
        with
        | Ok b -> b
        | Error e -> Alcotest.fail (Errno.to_string e)
      in
      (* /bin/tool.exe is 0755 with no ACL: the nobody fallback grants x. *)
      (match Idbox.Box.spawn box ~path:"/bin/tool.exe" ~args:[ "tool" ] () with
       | Ok pid ->
         Kernel.run k;
         Alcotest.(check (option int)) "ran boxed" (Some 5) (Kernel.exit_code k pid)
       | Error e -> Alcotest.failf "spawn: %s" (Errno.to_string e));
      (* Make it supervisor-private: the visitor's nobody fallback loses
         execute, while the supervising account keeps it. *)
      (match
         Idbox_vfs.Fs.chown (Kernel.fs k) ~uid:0 ~owner:sup.Account.uid
           "/bin/tool.exe"
       with
       | Ok () -> () | Error e -> Alcotest.fail (Errno.to_string e));
      (match Idbox_vfs.Fs.chmod (Kernel.fs k) ~uid:0 ~mode:0o700 "/bin/tool.exe" with
       | Ok () -> () | Error e -> Alcotest.fail (Errno.to_string e));
      (match Idbox.Box.spawn box ~path:"/bin/tool.exe" ~args:[ "tool" ] () with
       | Error Errno.EACCES -> ()
       | Ok _ -> Alcotest.fail "executed without x"
       | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
      (* The supervisor may still run it by opting out of the check. *)
      (match
         Idbox.Box.spawn box ~check_exec:false ~path:"/bin/tool.exe"
           ~args:[ "tool" ] ()
       with
       | Ok pid ->
         Kernel.run k;
         Alcotest.(check (option int)) "supervisor override" (Some 5)
           (Kernel.exit_code k pid)
       | Error e -> Alcotest.failf "override failed: %s" (Errno.to_string e)))

(* A mixed batch is one round trip, runs in order, and reports each
   member's own verdict — including a mid-batch failure that does not
   stop the rest. *)
let batch_one_round_trip () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/fred");
  let open Idbox_chirp.Protocol in
  let m0 = Network.total_messages w.net in
  let rs =
    ok "batch"
      (Client.batch c
         [
           Put { path = "/fred/a"; data = "alpha" };
           Get "/fred/a";
           Get "/fred/missing";
           Put { path = "/fred/b"; data = "beta" };
           Readdir "/fred";
         ])
  in
  Alcotest.(check int) "one request, one response" 2
    (Network.total_messages w.net - m0);
  (match rs with
   | [ R_ok; R_data "alpha"; R_error (Errno.ENOENT, _); R_ok; R_names names ]
     ->
     Alcotest.(check (list string)) "later members still ran" [ "a"; "b" ]
       (List.sort String.compare names)
   | _ -> Alcotest.failf "unexpected member results (%d)" (List.length rs));
  (* Nested batches are refused client-side before touching the wire. *)
  (match Client.batch c [ Batch [ Whoami ] ] with
   | Error e -> Alcotest.(check errno) "nested rejected" Errno.EINVAL e
   | Ok _ -> Alcotest.fail "nested batch accepted");
  Alcotest.(check (list Alcotest.string)) "empty batch is free" []
    (List.map (fun _ -> "") (ok "empty" (Client.batch c [])))

(* Attribute leases: a repeated stat inside the lease window costs no
   messages; any mutation through the client flushes, so the next stat
   sees the new world. *)
let lease_serves_and_flushes () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/fred");
  ok "put" (Client.put c ~path:"/fred/a" ~data:"alpha");
  let st1 = ok "stat" (Client.stat c "/fred/a") in
  let m0 = Network.total_messages w.net in
  let st2 = ok "stat again" (Client.stat c "/fred/a") in
  Alcotest.(check int) "leased stat costs no messages" 0
    (Network.total_messages w.net - m0);
  Alcotest.(check int) "same size" st1.Idbox_chirp.Protocol.ws_size
    st2.Idbox_chirp.Protocol.ws_size;
  ok "grow" (Client.put c ~path:"/fred/a" ~data:"alpha-and-more");
  let st3 = ok "stat after write" (Client.stat c "/fred/a") in
  Alcotest.(check int) "mutation flushed the lease" 14
    st3.Idbox_chirp.Protocol.ws_size;
  (* The lease also expires on its own clock. *)
  let _ = ok "stat" (Client.stat c "/fred/a") in
  Clock.advance (Network.clock w.net) 3_000_000_000L;
  let m1 = Network.total_messages w.net in
  let _ = ok "stat expired" (Client.stat c "/fred/a") in
  Alcotest.(check int) "expired lease goes to the wire" 2
    (Network.total_messages w.net - m1)

(* A get longer than one 64 KB server read, and an empty one, come back
   byte for byte.  The server makes one open, one read per 64 KB plus
   the read that finds end of file, and one close; the repeat get is
   counted so that the name and ACL caches are warm. *)
let multi_chunk_and_empty_get () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/bulk");
  List.iter
    (fun n ->
      let path = Printf.sprintf "/bulk/f%d" n in
      let data = String.init n (fun i -> Char.chr ((i + (i / 251)) land 0xff)) in
      ok "put" (Client.put c ~path ~data);
      Alcotest.(check bool) "first get exact" true
        (String.equal data (ok "get" (Client.get c path)));
      let before = (Kernel.stats w.kernel).Kernel.delegated in
      let got = ok "get again" (Client.get c path) in
      let calls = (Kernel.stats w.kernel).Kernel.delegated - before in
      Alcotest.(check int) (Printf.sprintf "%d bytes back" n) n (String.length got);
      Alcotest.(check bool) "bytes exact" true (String.equal data got);
      Alcotest.(check int)
        (Printf.sprintf "open, reads and close for %d bytes" n)
        (1 + ((n + 65535) / 65536) + 1 + 1)
        calls)
    [ 150_000; 0 ]

(* {1 The Get path: one copy per warm read}

   A warm [Get] of an unchanged file copies its bytes once, at the
   client: the inode hands back the string its last whole read kept,
   and the server answers with the frame it sealed around that string
   the first time. *)

(* Each of 20 warm [Router.get]s of an unchanged 64 KB file allocates
   under 1.5 payloads of major-heap words: the client's copy out of the
   frame, and no copy out of the inode or into a fresh frame. *)
let warm_get_copies_once () =
  let w = World.create () in
  (match World.add_node w ~host:"alpha.grid.edu" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  World.settle w;
  let r =
    match World.connect w ~credentials:[ World.issue w "Alice" ] with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let data = String.init 65536 (fun i -> Char.chr ((i * 7) land 0xff)) in
  ok "mkdir" (Router.mkdir r "/bulk");
  ok "put" (Router.put r ~path:"/bulk/f" ~data);
  for _ = 1 to 2 do
    ignore (ok "warm-up get" (Router.get r "/bulk/f"))
  done;
  let payload_words = float_of_int (String.length data / (Sys.word_size / 8)) in
  for i = 1 to 20 do
    let _, _, major0 = Gc.counters () in
    let got = ok "get" (Router.get r "/bulk/f") in
    let _, _, major1 = Gc.counters () in
    Alcotest.(check bool) "bytes exact" true (String.equal got data);
    let payloads = (major1 -. major0) /. payload_words in
    if payloads >= 1.5 then
      Alcotest.failf "get %d allocated %.0f major-heap words, %.2f payloads" i
        (major1 -. major0) payloads
  done

(* Every way a file's bytes change is seen by the next [Get]: a put, a
   rename over it, a remote job writing it, and a crash and restart
   (the put before it replayed from the log).  Every version has the
   same length, so only the bytes tell them apart. *)
let get_sees_every_change () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      Program.register "writer" (fun _ ->
          match Libc.write_file "f" ~contents:"version 4" with
          | Ok () -> 0
          | Error _ -> 1);
      let c = connect_fred w in
      let expect what want =
        for _ = 1 to 2 do
          Alcotest.(check string) what want (ok "get" (Client.get c "/d/f"))
        done
      in
      ok "mkdir" (Client.mkdir c "/d");
      ok "put" (Client.put c ~path:"/d/f" ~data:"version 1");
      expect "first bytes" "version 1";
      ok "put again" (Client.put c ~path:"/d/f" ~data:"version 2");
      expect "after a put" "version 2";
      ok "put other" (Client.put c ~path:"/d/g" ~data:"version 3");
      ok "rename" (Client.rename c ~src:"/d/g" ~dst:"/d/f");
      expect "after a rename over it" "version 3";
      ok "stage" (Client.put c ~path:"/d/writer.exe" ~data:(Program.marker "writer"));
      Alcotest.(check int) "job exit" 0
        (ok "exec" (Client.exec c ~path:"/d/writer.exe" ~args:[ "writer.exe" ] ()));
      expect "after the job wrote it" "version 4";
      ok "put before the crash" (Client.put c ~path:"/d/f" ~data:"version 5");
      Server.crash w.server;
      Server.restart w.server;
      Alcotest.(check int) "the crash emptied the reply table" 0 (Server.reply_bytes w.server);
      expect "after a crash and restart" "version 5")

(* The same [Get] of an unchanged file, handled twice, is answered with
   the same frame; after a put, with a new one carrying the new bytes. *)
let same_get_same_frame () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/d");
  ok "put" (Client.put c ~path:"/d/f" ~data:"v1");
  let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  let token =
    match
      Protocol.decode_response
        (Server.handle w.server (Protocol.encode_request (Protocol.Auth [ Credential.Gsi cert ])))
    with
    | Ok (Protocol.R_auth { token; _ }) -> token
    | Ok _ | Error _ -> Alcotest.fail "auth"
  in
  let get =
    Protocol.encode_request (Protocol.Op { token; req_id = ""; op = Protocol.Get "/d/f" })
  in
  let data frame =
    match Protocol.decode_response frame with
    | Ok (Protocol.R_data d) -> d
    | Ok _ | Error _ -> Alcotest.fail "not a data reply"
  in
  let a = Server.handle w.server get in
  let b = Server.handle w.server get in
  Alcotest.(check bool) "the same frame" true (a == b);
  Alcotest.(check string) "carrying the file" "v1" (data b);
  ok "put" (Client.put c ~path:"/d/f" ~data:"v2");
  let c2 = Server.handle w.server get in
  Alcotest.(check bool) "a new frame after a put" false (c2 == b);
  Alcotest.(check string) "carrying the new bytes" "v2" (data c2);
  Alcotest.(check bool) "and kept" true (Server.handle w.server get == c2)

(* Damage in flight is the network's own copy: under a corrupting fault
   profile on the server's address every [Get] still returns the file
   after retries, and once the network is calm the server's kept frame
   still decodes to it. *)
let corrupted_gets_leave_the_frame_whole () =
  let w = make_world () in
  let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  let c =
    match
      Client.connect w.net ~addr:"alpha.grid.edu:9094"
        ~policy:{ Client.default_policy with max_attempts = 16; retry_budget = 1000 }
        ~credentials:[ Credential.Gsi cert ]
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let data = String.init 4000 (fun i -> Char.chr (i land 0xff)) in
  ok "mkdir" (Client.mkdir c "/d");
  ok "put" (Client.put c ~path:"/d/f" ~data);
  Alcotest.(check bool) "calm get" true (String.equal data (ok "get" (Client.get c "/d/f")));
  Network.set_fault_plan w.net
    (Fault.plan ~seed:27L
       ~per_endpoint:[ ("alpha.grid.edu:9094", Fault.profile ~corrupt:0.3 ()) ]
       ());
  let corrupt () =
    Idbox_kernel.Metrics.counter_value_of (Network.metrics w.net) "net.corrupt"
  in
  let before = corrupt () in
  for _ = 1 to 20 do
    Alcotest.(check bool) "get under corruption" true
      (String.equal data (ok "get" (Client.get c "/d/f")))
  done;
  Alcotest.(check bool) "frames were damaged" true (corrupt () > before);
  Alcotest.(check bool) "and retried" true (Client.retries c > 0);
  Network.clear_fault_plan w.net;
  Alcotest.(check bool) "calm get afterwards" true
    (String.equal data (ok "get" (Client.get c "/d/f")))

(* Distinct files whose frames add up past [Server.reply_capacity]: the
   table never holds more than that, and was emptied on the way. *)
let reply_table_bounded () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/d");
  let data = String.make 65536 'x' in
  let files = (Server.reply_capacity / String.length data) + 8 in
  let most = ref 0 and emptied = ref false in
  for i = 1 to files do
    let path = Printf.sprintf "/d/f%d" i in
    ok "put" (Client.put c ~path ~data);
    let before = Server.reply_bytes w.server in
    ignore (ok "get" (Client.get c path));
    let after = Server.reply_bytes w.server in
    if after < before then emptied := true;
    most := max !most after
  done;
  Alcotest.(check bool) "within the bound" true (!most <= Server.reply_capacity);
  Alcotest.(check bool) "emptied when full" true !emptied

(* The wire decoder accepts a delegated mutation, so the server's list
   of delegable operations is the only guard: under a valid chain every
   mutation answers EINVAL and changes nothing, while every read-only
   operation, and exec, is served. *)
let delegated_mutations_refused () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      Program.register "noop" (fun _ -> 0);
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/work");
      ok "mkdir sub" (Client.mkdir c "/work/sub");
      ok "put" (Client.put c ~path:"/work/f" ~data:"bytes");
      ok "stage" (Client.put c ~path:"/work/noop.exe" ~data:(Program.marker "noop"));
      let fred = "globus:/O=UnivNowhere/CN=Fred" in
      let jane_cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Jane") in
      let jane =
        match
          Client.connect w.net ~addr:"alpha.grid.edu:9094"
            ~credentials:[ Credential.Gsi jane_cert ]
        with
        | Ok c -> c
        | Error m -> Alcotest.fail m
      in
      let chain =
        [
          Idbox_auth.Delegation.mint w.ca ~delegator:fred
            ~delegatee:"globus:/O=UnivNowhere/CN=Jane" ~rights:Rights.full
            ~prefix:"/work" ~now:(Kernel.now w.kernel) ~ttl_ns:1_000_000_000_000L
            ~hops:4 ();
        ]
      in
      let send op =
        Client.interpret
          (Server.handle w.server
             (Client.prepare jane (Protocol.Delegated { chain; op })))
      in
      let name = Protocol.operation_name in
      let snapshot () =
        match Server.snapshot_subtree w.server "/" with
        | Ok entries -> entries
        | Error e -> Alcotest.failf "snapshot: %s" (Errno.to_string e)
      in
      let before = snapshot () in
      let epoch () = ok "epoch" (Client.delegation_epoch c fred) in
      let epoch_before = epoch () in
      List.iter
        (fun op ->
          match send op with
          | Error e -> Alcotest.check errno (name op ^ " refused") Errno.EINVAL e
          | Ok _ -> Alcotest.failf "delegated %s served" (name op))
        Protocol.
          [
            Mkdir "/work/new";
            Rmdir "/work/sub";
            Unlink "/work/f";
            Put { path = "/work/g"; data = "x" };
            Setacl { path = "/work"; entry = "globus:/O=UnivNowhere/CN=Jane rwlxda" };
            Rename { src = "/work/f"; dst = "/work/h" };
            Revoke fred;
          ];
      Alcotest.(check bool) "export unchanged" true (before = snapshot ());
      Alcotest.(check int) "no epoch moved" epoch_before (epoch ());
      List.iter
        (fun op ->
          match send op with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "delegated %s: %s" (name op) (Errno.to_string e))
        Protocol.
          [
            Get "/work/f";
            Stat "/work/f";
            Readdir "/work";
            Getacl "/work";
            Checksum "/work/f";
            Whoami;
            Epoch fred;
            Exec { path = "/work/noop.exe"; args = [ "noop" ]; cwd = "/work" };
          ])

let suite =
  [
    Alcotest.test_case "figure 3 full scenario" `Quick figure3_full_scenario;
    Alcotest.test_case "acl management through mount" `Quick acl_management_through_mount;
    Alcotest.test_case "box spawn from path" `Quick box_spawn_from_path;
    Alcotest.test_case "reserve namespace + grant" `Quick reserve_mints_private_namespace;
    Alcotest.test_case "hostname users read-only" `Quick hostname_users_read_only;
    Alcotest.test_case "untrusted CA rejected" `Quick untrusted_ca_rejected;
    Alcotest.test_case "bogus token rejected" `Quick bogus_token_rejected;
    Alcotest.test_case "path escape blocked" `Quick path_escape_blocked;
    Alcotest.test_case "exec requires x" `Quick exec_requires_x_right;
    Alcotest.test_case "remote execs free their processes" `Quick
      remote_execs_free_processes;
    Alcotest.test_case "rename and stat" `Quick rename_and_stat;
    Alcotest.test_case "acl file invisible" `Quick acl_file_invisible_remotely;
    Alcotest.test_case "checksum integrity" `Quick checksum_integrity;
    Alcotest.test_case "sessions tracked" `Quick sessions_tracked;
    Alcotest.test_case "catalog" `Quick catalog_register_list;
    Alcotest.test_case "shutdown" `Quick shutdown_stops_serving;
    Alcotest.test_case "remote mount through box" `Quick remote_mount_through_box;
    Alcotest.test_case "batch one round trip" `Quick batch_one_round_trip;
    Alcotest.test_case "lease serves and flushes" `Quick lease_serves_and_flushes;
    Alcotest.test_case "multi-chunk and empty get" `Quick multi_chunk_and_empty_get;
    Alcotest.test_case "delegated mutations refused" `Quick delegated_mutations_refused;
    Alcotest.test_case "warm get copies once" `Quick warm_get_copies_once;
    Alcotest.test_case "get sees every change" `Quick get_sees_every_change;
    Alcotest.test_case "same get, same frame" `Quick same_get_same_frame;
    Alcotest.test_case "corrupted gets leave the frame whole" `Quick
      corrupted_gets_leave_the_frame_whole;
    Alcotest.test_case "reply table bounded" `Quick reply_table_bounded;
  ]
