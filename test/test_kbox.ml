module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Kbox = Idbox.Kbox
module Box = Idbox.Box
module Enforce = Idbox.Enforce
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"
let carol = Principal.of_string "unix:carol"

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let setup () =
  let k = Kernel.create () in
  let sup =
    match Account.add (Kernel.accounts k) "operator" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Kernel.refresh_passwd k;
  let kbox = Kbox.install k ~supervisor_uid:sup.Account.uid () in
  let fs = Kernel.fs k in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/srv/area");
  ok "chown" (Fs.chown fs ~uid:0 ~owner:sup.Account.uid "/srv/area");
  ok "acl"
    (Enforce.write_acl (Kbox.enforcer kbox) ~dir:"/srv/area"
       (Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rwlxd") ]));
  (k, kbox)

let enforcement_without_traps () =
  let k, kbox = setup () in
  let trapped0 = (Kernel.stats k).Kernel.trapped in
  let pid =
    Kbox.spawn_main kbox ~identity:fred
      ~main:(fun _ ->
        (* Allowed by the ACL. *)
        (match Libc.write_file "/srv/area/f" ~contents:"x" with
         | Ok () -> () | Error _ -> Libc.exit 1);
        (* Denied: no ACL in /etc, nobody fallback, root-owned 644. *)
        (match Libc.write_file "/etc/intruder" ~contents:"x" with
         | Error Errno.EACCES -> () | Ok () | Error _ -> Libc.exit 2);
        (* get_user_name answers with the identity, in-kernel. *)
        if not (String.equal (Libc.get_user_name ()) "globus:/O=UnivNowhere/CN=Fred")
        then Libc.exit 3;
        0)
      ~args:[ "j" ]
  in
  Kernel.run k;
  Alcotest.(check (option int)) "enforced" (Some 0) (Kernel.exit_code k pid);
  (* The whole point: zero trapped calls. *)
  Alcotest.(check int) "no traps" trapped0 (Kernel.stats k).Kernel.trapped

(* The ACL file is out of a visitor's reach in-kernel too, although
   Fred holds w in /srv/area: no direct write, no rename of his own file
   onto it, no unlink, and no access through a link he plants. *)
let acl_file_protected_in_kernel () =
  let k, kbox = setup () in
  let fs = Kernel.fs k in
  let acl_bytes () = ok "acl bytes" (Fs.read_file fs ~uid:0 "/srv/area/.__acl") in
  let before = acl_bytes () in
  let refused n = function Error Errno.EACCES -> () | Ok _ | Error _ -> Libc.exit n in
  let pid =
    Kbox.spawn_main kbox ~identity:fred
      ~main:(fun _ ->
        refused 1 (Libc.write_file "/srv/area/.__acl" ~contents:"globus:/O=UnivNowhere/* rwlxad");
        (match Libc.write_file "/srv/area/mine" ~contents:"globus:/O=UnivNowhere/* rwlxad" with
         | Ok () -> ()
         | Error _ -> Libc.exit 2);
        refused 3 (Libc.rename ~src:"/srv/area/mine" ~dst:"/srv/area/.__acl");
        refused 4 (Libc.unlink "/srv/area/.__acl");
        (match Libc.symlink ~target:".__acl" "/srv/area/lnk" with
         | Ok () -> ()
         | Error _ -> Libc.exit 5);
        refused 6 (Libc.read_file "/srv/area/lnk");
        refused 7 (Libc.write_file "/srv/area/lnk" ~contents:"globus:/O=UnivNowhere/* rwlxad");
        refused 8 (Libc.truncate ~len:0 "/srv/area/lnk");
        0)
      ~args:[ "j" ]
  in
  Kernel.run k;
  Alcotest.(check (option int)) "every attempt refused" (Some 0) (Kernel.exit_code k pid);
  Alcotest.(check string) "acl bytes unchanged" before (acl_bytes ())

(* Paper §6, pitfall #2, ".." flavour, in the kernel: with
   [/srv/area/sub -> /protected/deep], the link [/srv/area/evil ->
   sub/../secret.txt] names /protected/secret.txt, which the in-kernel
   check must judge at /protected (no ACL: nobody), not at a lexical
   /srv/area/secret.txt. *)
let dotdot_after_symlink_in_kernel () =
  let k, kbox = setup () in
  let fs = Kernel.fs k in
  let sup =
    match Account.find (Kernel.accounts k) "operator" with
    | Some e -> e.Account.uid
    | None -> Alcotest.fail "no supervisor account"
  in
  ok "protected" (Fs.mkdir_p fs ~uid:0 "/protected/deep");
  ok "chown" (Fs.chown fs ~uid:0 ~owner:sup "/protected");
  ok "chown deep" (Fs.chown fs ~uid:0 ~owner:sup "/protected/deep");
  ok "chmod" (Fs.chmod fs ~uid:0 ~mode:0o700 "/protected");
  ok "secret"
    (Fs.write_file fs ~uid:sup ~mode:0o600 "/protected/secret.txt" "classified");
  let pid =
    Kbox.spawn_main kbox ~identity:fred
      ~main:(fun _ ->
        List.iter
          (fun (target, link) ->
            match Libc.symlink ~target link with
            | Ok () -> ()
            | Error _ -> Libc.exit 1)
          [
            ("/protected/deep", "/srv/area/sub");
            ("sub/../secret.txt", "/srv/area/evil");
          ];
        match Libc.read_file "/srv/area/evil" with
        | Error Errno.EACCES -> 0
        | Ok _ -> 42
        | Error _ -> 2)
      ~args:[ "attack" ]
  in
  Kernel.run k;
  Alcotest.(check (option int)) "dot-dot laundering blocked in-kernel" (Some 0)
    (Kernel.exit_code k pid)

let identity_inherited_by_children () =
  let k, kbox = setup () in
  Kernel.with_fresh_programs (fun () ->
      Idbox_kernel.Program.register "child" (fun _ ->
          if String.equal (Libc.get_user_name ()) "globus:/O=UnivNowhere/CN=Fred"
          then 0 else 1);
      (match
         Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/srv/area/child.exe"
           (Idbox_kernel.Program.marker "child")
       with
       | Ok () -> () | Error e -> Alcotest.fail (Errno.to_string e));
      let pid =
        Kbox.spawn_main kbox ~identity:fred
          ~main:(fun _ ->
            let c =
              match Libc.spawn "/srv/area/child.exe" ~args:[ "c" ] with
              | Ok c -> c
              | Error _ -> Libc.exit 1
            in
            match Libc.waitpid c with
            | Ok (_, status) -> status
            | Error _ -> 2)
          ~args:[ "parent" ]
      in
      Kernel.run k;
      Alcotest.(check (option int)) "child saw identity" (Some 0)
        (Kernel.exit_code k pid))

let kill_policy_by_identity () =
  let k, kbox = setup () in
  let victim =
    Kbox.spawn_main kbox ~identity:carol
      ~main:(fun _ ->
        for _ = 1 to 1000 do
          Libc.compute 1_000_000L
        done;
        0)
      ~args:[ "victim" ]
  in
  let attacker_result = ref None in
  let _ =
    Kbox.spawn_main kbox ~identity:fred
      ~main:(fun _ ->
        attacker_result := Some (Libc.kill ~pid:victim ~signal:9);
        0)
      ~args:[ "attacker" ]
  in
  Kernel.run k;
  (match !attacker_result with
   | Some (Error Errno.EPERM) -> ()
   | _ -> Alcotest.fail "cross-identity kill not denied");
  Alcotest.(check (option int)) "victim finished" (Some 0) (Kernel.exit_code k victim)

let spawn_checks_execute_right () =
  let k, kbox = setup () in
  Kernel.with_fresh_programs (fun () ->
      Idbox_kernel.Program.register "tool" (fun _ -> 0);
      (match
         Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/srv/area/tool.exe"
           (Idbox_kernel.Program.marker "tool")
       with
       | Ok () -> () | Error e -> Alcotest.fail (Errno.to_string e));
      (* Fred holds x: allowed. *)
      (match Kbox.spawn kbox ~identity:fred ~path:"/srv/area/tool.exe" ~args:[ "t" ] () with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "fred denied: %s" (Errno.to_string e));
      (* Carol holds nothing in the ACL: denied. *)
      (match Kbox.spawn kbox ~identity:carol ~path:"/srv/area/tool.exe" ~args:[ "t" ] () with
       | Error Errno.EACCES -> ()
       | Ok _ -> Alcotest.fail "carol allowed"
       | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
      Kernel.run k)

let identity_of_lookup () =
  let k, kbox = setup () in
  let pid = Kbox.spawn_main kbox ~identity:fred ~main:(fun _ -> 0) ~args:[ "j" ] in
  (match Kbox.identity_of kbox pid with
   | Some p -> Alcotest.(check bool) "fred" true (Principal.equal p fred)
   | None -> Alcotest.fail "identity missing");
  Kernel.run k

let hierarchy_domains_minted () =
  let k, kbox = setup () in
  ignore (Kbox.spawn_main kbox ~identity:fred ~main:(fun _ -> 0) ~args:[ "j" ]);
  ignore (Kbox.spawn_main kbox ~identity:carol ~main:(fun _ -> 0) ~args:[ "j" ]);
  Kernel.run k;
  (match Kbox.domain_of kbox fred with
   | Some d ->
     Alcotest.(check string) "fred's domain"
       "root:operator:grid:globus./O=UnivNowhere/CN=Fred"
       (Idbox_identity.Hierarchy.full_name d)
   | None -> Alcotest.fail "fred has no domain");
  (* Both live under the operator's grid subtree. *)
  Alcotest.(check int) "root + operator + grid + 2 visitors" 5
    (Idbox_identity.Hierarchy.size (Kbox.namespace kbox))

let retire_terminates_subtree () =
  let k, kbox = setup () in
  (* Two long-running visitors. *)
  let long _ =
    for _ = 1 to 100_000 do
      Libc.compute 1_000_000L
    done;
    0
  in
  let fred_pid = Kbox.spawn_main kbox ~identity:fred ~main:long ~args:[ "f" ] in
  let carol_pid = Kbox.spawn_main kbox ~identity:carol ~main:long ~args:[ "c" ] in
  (* Retire only Fred's domain while both are queued. *)
  (match
     Kbox.retire kbox
       ~full_name:"root:operator:grid:globus./O=UnivNowhere/CN=Fred"
   with
   | Ok n -> Alcotest.(check int) "one process killed" 1 n
   | Error m -> Alcotest.fail m);
  Kernel.run k;
  Alcotest.(check (option int)) "fred killed" (Some 137) (Kernel.exit_code k fred_pid);
  Alcotest.(check (option int)) "carol unharmed" (Some 0) (Kernel.exit_code k carol_pid);
  Alcotest.(check bool) "fred's domain gone" true (Kbox.domain_of kbox fred = None);
  (* Retiring the whole grid subtree takes everything else. *)
  let carol2 = Kbox.spawn_main kbox ~identity:carol ~main:long ~args:[ "c2" ] in
  (match Kbox.retire kbox ~full_name:"root:operator:grid" with
   | Ok n -> Alcotest.(check bool) "at least carol" true (n >= 1)
   | Error m -> Alcotest.fail m);
  Kernel.run k;
  Alcotest.(check (option int)) "carol2 killed" (Some 137) (Kernel.exit_code k carol2);
  (match Kbox.retire kbox ~full_name:"root:operator:grid:nonexistent" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "retired a missing domain")

let uninstall_restores () =
  let k, kbox = setup () in
  Kbox.uninstall kbox;
  (* After uninstall the hook no longer denies anything. *)
  let pid =
    Kernel.spawn_main k ~uid:0
      ~main:(fun _ ->
        match Libc.write_file "/etc/after" ~contents:"x" with
        | Ok () -> 0
        | Error _ -> 1)
      ~args:[ "j" ] ()
  in
  Kernel.run k;
  Alcotest.(check (option int)) "hook gone" (Some 0) (Kernel.exit_code k pid)

let suite =
  [
    Alcotest.test_case "enforcement without traps" `Quick enforcement_without_traps;
    Alcotest.test_case "acl file protected in-kernel" `Quick acl_file_protected_in_kernel;
    Alcotest.test_case "dot-dot after a symlink does not launder" `Quick
      dotdot_after_symlink_in_kernel;
    Alcotest.test_case "children inherit identity" `Quick identity_inherited_by_children;
    Alcotest.test_case "kill policy" `Quick kill_policy_by_identity;
    Alcotest.test_case "spawn checks x" `Quick spawn_checks_execute_right;
    Alcotest.test_case "identity_of" `Quick identity_of_lookup;
    Alcotest.test_case "hierarchy domains minted" `Quick hierarchy_domains_minted;
    Alcotest.test_case "retire terminates subtree" `Quick retire_terminates_subtree;
    Alcotest.test_case "uninstall" `Quick uninstall_restores;
  ]
