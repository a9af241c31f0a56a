(* Paper §6: the security argument, tested.  One test per Garfinkel
   pitfall plus the containment properties the identity box claims. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Box = Idbox.Box
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

(* A host with a supervisor, a protected area the visitor cannot touch,
   and a shared area where Fred holds rwlx (no admin). *)
let setup () =
  let k = Kernel.create () in
  let sup =
    match Account.add (Kernel.accounts k) "dthain" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Kernel.refresh_passwd k;
  let fs = Kernel.fs k in
  ok "p1" (Fs.mkdir_p fs ~uid:0 "/protected");
  ok "p2" (Fs.chown fs ~uid:0 ~owner:sup.Account.uid "/protected");
  ok "p3" (Fs.chmod fs ~uid:0 ~mode:0o700 "/protected");
  ok "p4"
    (Fs.write_file fs ~uid:sup.Account.uid ~mode:0o600 "/protected/secret.txt"
       "classified");
  ok "s1" (Fs.mkdir_p fs ~uid:0 "/shared");
  ok "s2" (Fs.chown fs ~uid:0 ~owner:sup.Account.uid "/shared");
  let box =
    match Box.create k ~supervisor_uid:sup.Account.uid ~identity:fred () with
    | Ok box -> box
    | Error e -> Alcotest.failf "box: %s" (Errno.to_string e)
  in
  ok "acl"
    (Box.set_acl box ~dir:"/shared"
       (Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rwlxd") ]));
  (k, sup.Account.uid, box)

let run_in box main =
  let pid = Box.spawn_main box ~main ~args:[ "attack" ] in
  Kernel.run (Box.kernel box);
  match Kernel.exit_code (Box.kernel box) pid with
  | Some code -> code
  | None -> Alcotest.fail "attacker never exited"

(* Pitfall #2, symlink flavour: planting a symlink in a permissive
   directory must not grant access to a protected target — the box
   checks the TARGET's directory. *)
let symlink_does_not_launder_access () =
  let k, _sup, box = setup () in
  ignore k;
  let code =
    run_in box (fun _ ->
        (* Fred may create the link itself (w in /shared)... *)
        (match Libc.symlink ~target:"/protected/secret.txt" "/shared/alias" with
         | Ok () -> ()
         | Error _ -> Libc.exit 1);
        (* ...but opening through it is judged at the target. *)
        (match Libc.read_file "/shared/alias" with
         | Error Errno.EACCES -> 0
         | Ok _ -> 42
         | Error _ -> 2))
  in
  Alcotest.(check int) "symlink laundering blocked" 0 code

(* Pitfall #2, ancestor flavour (found by the fuzzer in test_fuzz.ml):
   a symlink planted as a *parent directory* must not smuggle
   operations into a protected tree — the lexical parent's ACL is the
   visitor's own home, but the object lives elsewhere. *)
let symlinked_parent_does_not_launder_access () =
  let k, _sup, box = setup () in
  let home = Idbox.Box.home box in
  let code =
    run_in box (fun _ ->
        (* Plant ~/sub -> /protected, then try to create through it. *)
        (match Libc.symlink ~target:"/protected" (home ^ "/sub") with
         | Ok () -> ()
         | Error _ -> Libc.exit 1);
        (match Libc.mkdir (home ^ "/sub/evil") with
         | Error Errno.EACCES -> ()
         | Ok () -> Libc.exit 42
         | Error _ -> Libc.exit 2);
        (match Libc.write_file (home ^ "/sub/evil.txt") ~contents:"x" with
         | Error Errno.EACCES -> ()
         | Ok () -> Libc.exit 43
         | Error _ -> Libc.exit 3);
        (* Reading through it is judged at the target too. *)
        (match Libc.read_file (home ^ "/sub/secret.txt") with
         | Error Errno.EACCES -> 0
         | Ok _ -> 44
         | Error _ -> 4))
  in
  Alcotest.(check int) "parent symlink laundering blocked" 0 code;
  Alcotest.(check bool) "nothing created in /protected" false
    (Fs.exists (Kernel.fs k) ~uid:0 "/protected/evil")

(* Pitfall #2, ".." flavour: a ".." in a link target that follows a
   symlink pops to the parent of that symlink's target, not of its name.
   With [/shared/sub -> /protected/deep], the link [/shared/evil ->
   sub/../secret.txt] names /protected/secret.txt, and the check must
   judge it there rather than at a lexical /shared/secret.txt.  A
   create through such a dangling link is judged, and would land, at
   the same place. *)
let dotdot_after_symlink_does_not_launder_access () =
  let k, sup, box = setup () in
  let fs = Kernel.fs k in
  ok "deep" (Fs.mkdir_p fs ~uid:sup "/protected/deep");
  let code =
    run_in box (fun _ ->
        List.iter
          (fun (target, link) ->
            match Libc.symlink ~target link with
            | Ok () -> ()
            | Error _ -> Libc.exit 1)
          [
            ("/protected/deep", "/shared/sub");
            ("sub/../secret.txt", "/shared/evil");
            ("sub/../planted.txt", "/shared/plant");
          ];
        (match Libc.read_file "/shared/evil" with
         | Error Errno.EACCES -> ()
         | Ok _ -> Libc.exit 42
         | Error _ -> Libc.exit 2);
        match Libc.write_file "/shared/plant" ~contents:"x" with
        | Error Errno.EACCES -> 0
        | Ok () -> 43
        | Error _ -> 3)
  in
  Alcotest.(check int) "dot-dot laundering blocked" 0 code;
  Alcotest.(check bool) "nothing planted in /protected" false
    (Fs.exists fs ~uid:0 "/protected/planted.txt");
  Alcotest.(check bool) "nor in /shared" false
    (Fs.exists fs ~uid:0 "/shared/planted.txt")

(* Pitfall #2, hard-link flavour: a hard link cannot be traced back to
   its origin, so creating one to an unreadable target is refused
   outright. *)
let hard_link_to_protected_refused () =
  let k, sup, box = setup () in
  let code =
    run_in box (fun _ ->
        match Libc.link ~target:"/protected/secret.txt" "/shared/leak" with
        | Error Errno.EACCES -> 0
        | Ok () -> 42
        | Error _ -> 2)
  in
  Alcotest.(check int) "hard link refused" 0 code;
  (* And to a readable target it is allowed — containment is by access
     control, not by outlawing the interface (pitfall #3). *)
  let fs = Kernel.fs k in
  ok "seed" (Fs.write_file fs ~uid:sup "/shared/public.txt" "fine");
  let code =
    run_in box (fun _ ->
        match Libc.link ~target:"/shared/public.txt" "/shared/mylink" with
        | Ok () -> 0
        | Error _ -> 1)
  in
  Alcotest.(check int) "readable hard link allowed" 0 code

(* Pitfall #3: no interface subsetting — the whole call surface works
   inside a box, against permitted objects. *)
let full_interface_available () =
  let _, _, box = setup () in
  let code =
    run_in box (fun _ ->
        let base = "/shared" in
        ignore (Libc.check "mkdir" (Libc.mkdir (base ^ "/d")));
        ignore (Libc.check "write" (Libc.write_file (base ^ "/d/f") ~contents:"1"));
        ignore (Libc.check "stat" (Libc.stat (base ^ "/d/f")));
        ignore (Libc.check "lstat" (Libc.lstat (base ^ "/d/f")));
        ignore (Libc.check "readdir" (Libc.readdir (base ^ "/d")));
        ignore (Libc.check "rename" (Libc.rename ~src:(base ^ "/d/f") ~dst:(base ^ "/d/g")));
        ignore (Libc.check "symlink" (Libc.symlink ~target:"g" (base ^ "/d/ln")));
        ignore (Libc.check "readlink" (Libc.readlink (base ^ "/d/ln")));
        ignore (Libc.check "read" (Libc.read_file (base ^ "/d/ln")));
        ignore (Libc.check "truncate" (Libc.truncate ~len:0 (base ^ "/d/g")));
        ignore (Libc.check "unlink" (Libc.unlink (base ^ "/d/ln")));
        ignore (Libc.check "unlink2" (Libc.unlink (base ^ "/d/g")));
        ignore (Libc.check "rmdir" (Libc.rmdir (base ^ "/d")));
        ignore (Libc.getpid ());
        ignore (Libc.getuid ());
        ignore (Libc.get_user_name ());
        ignore (Libc.getcwd ());
        Libc.setenv "X" "y";
        (match Libc.getenv "X" with Some "y" -> () | _ -> Libc.exit 9);
        0)
  in
  Alcotest.(check int) "full surface" 0 code

(* Pitfall #5: any return value can be injected, including EACCES — and
   a denied call must have no side effect. *)
let denied_calls_have_no_side_effects () =
  let k, _, box = setup () in
  let code =
    run_in box (fun _ ->
        match Libc.write_file "/protected/intruder" ~contents:"boo" with
        | Error Errno.EACCES -> 0
        | Ok () -> 42
        | Error _ -> 2)
  in
  Alcotest.(check int) "EACCES injected" 0 code;
  Alcotest.(check bool) "nothing created" false
    (Fs.exists (Kernel.fs k) ~uid:0 "/protected/intruder")

(* The ACL files themselves are not reachable through the trapped
   interface: only getacl/setacl may touch them. *)
let acl_files_protected () =
  let _, _, box = setup () in
  let code =
    run_in box (fun _ ->
        (match Libc.read_file "/shared/.__acl" with
         | Error Errno.EACCES -> ()
         | Ok _ | Error _ -> Libc.exit 1);
        (match Libc.write_file "/shared/.__acl" ~contents:"unix:eve rwlxad" with
         | Error Errno.EACCES -> ()
         | Ok () | Error _ -> Libc.exit 2);
        (match Libc.unlink "/shared/.__acl" with
         | Error Errno.EACCES -> ()
         | Ok () | Error _ -> Libc.exit 3);
        (match Libc.rename ~src:"/shared/.__acl" ~dst:"/shared/stolen" with
         | Error Errno.EACCES -> ()
         | Ok () | Error _ -> Libc.exit 4);
        (match Libc.link ~target:"/shared/.__acl" "/shared/laundered" with
         | Error Errno.EACCES -> ()
         | Ok () | Error _ -> Libc.exit 5);
        0)
  in
  Alcotest.(check int) "acl file unreachable" 0 code

(* Pitfall #2 aimed at the ACL file itself: Fred holds w but not a in
   /shared, and may plant a link to the ACL file there — but reading,
   writing or truncating through it is refused, the ACL bytes stay as
   they were, and so setacl stays out of reach even after a
   policy-visible change (without the refusal, Write launders into
   Admin). *)
let acl_file_unreachable_through_symlink () =
  let k, _, box = setup () in
  let fs = Kernel.fs k in
  let acl_bytes () = ok "acl bytes" (Fs.read_file fs ~uid:0 "/shared/.__acl") in
  let before = acl_bytes () in
  let code =
    run_in box (fun _ ->
        (match Libc.symlink ~target:".__acl" "/shared/evil" with
         | Ok () -> ()
         | Error _ -> Libc.exit 1);
        (match Libc.read_file "/shared/evil" with
         | Error Errno.EACCES -> ()
         | Ok _ | Error _ -> Libc.exit 2);
        (match Libc.write_file "/shared/evil" ~contents:"globus:/O=UnivNowhere/* rwlxad" with
         | Error Errno.EACCES -> ()
         | Ok () | Error _ -> Libc.exit 3);
        (match Libc.truncate ~len:0 "/shared/evil" with
         | Error Errno.EACCES -> ()
         | Ok () | Error _ -> Libc.exit 4);
        (match Libc.mkdir "/shared/sub" with
         | Ok () -> ()
         | Error _ -> Libc.exit 5);
        match Libc.setacl ~path:"/shared" ~entry:"globus:/O=UnivNowhere/* rwlxad" with
        | Error Errno.EACCES -> 0
        | Ok () -> 42
        | Error _ -> 6)
  in
  Alcotest.(check int) "acl file unreachable through a symlink" 0 code;
  Alcotest.(check string) "acl bytes unchanged" before (acl_bytes ())

(* Without the a right, setacl is denied: Fred cannot grant himself or
   anyone else more rights in /shared. *)
let privilege_escalation_via_setacl_blocked () =
  let _, _, box = setup () in
  let code =
    run_in box (fun _ ->
        match Libc.setacl ~path:"/shared" ~entry:"globus:/O=UnivNowhere/* rwlxad" with
        | Error Errno.EACCES -> 0
        | Ok () -> 42
        | Error _ -> 2)
  in
  Alcotest.(check int) "setacl denied" 0 code

(* Escape via relative paths: climbing out of the cwd with .. is still
   judged by the governing directory's ACL. *)
let dotdot_escape_blocked () =
  let _, _, box = setup () in
  let code =
    run_in box (fun _ ->
        ignore (Libc.check "chdir" (Libc.chdir "/shared"));
        match Libc.read_file "../protected/secret.txt" with
        | Error Errno.EACCES -> 0
        | Ok _ -> 42
        | Error _ -> 2)
  in
  Alcotest.(check int) "dotdot blocked" 0 code

(* The passwd redirection is read-only: the visitor cannot forge
   entries in the private copy the box serves. *)
let passwd_copy_read_only () =
  let _, _, box = setup () in
  let code =
    run_in box (fun _ ->
        match Libc.write_file "/etc/passwd" ~contents:"root::0:0::/:/bin/sh" with
        | Error Errno.EACCES -> 0
        | Ok () -> 42
        | Error _ -> 2)
  in
  Alcotest.(check int) "passwd immutable" 0 code

(* chown inside a box is always denied: ownership is the supervisor's
   business. *)
let chown_denied () =
  let _, _, box = setup () in
  let code =
    run_in box (fun _ ->
        ignore (Libc.check "seed" (Libc.write_file "/shared/mine" ~contents:"x"));
        match Libc.chown ~owner:0 "/shared/mine" with
        | Error Errno.EPERM -> 0
        | Ok () -> 42
        | Error _ -> 2)
  in
  Alcotest.(check int) "chown denied" 0 code

(* Pitfall #1 (state replication): after processes die, the box's
   tables are empty — no stale supervisor state survives its tracees. *)
let no_stale_state_after_exit () =
  let k, _, box = setup () in
  let pids =
    List.init 5 (fun i ->
        Box.spawn_main box
          ~main:(fun _ ->
            ignore (Libc.write_file (Printf.sprintf "f%d" i) ~contents:"x");
            0)
          ~args:[ "p" ])
  in
  Kernel.run k;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "not a member" false (Box.member box pid);
      Alcotest.(check (option int)) "exited cleanly" (Some 0) (Kernel.exit_code k pid))
    pids

(* An exiting process's open writes are flushed, not lost (the
   supervisor owns the real descriptors). *)
let exit_flushes_descriptors () =
  let k, _, box = setup () in
  let home = Box.home box in
  let pid =
    Box.spawn_main box
      ~main:(fun _ ->
        let fd =
          Libc.check "open" (Libc.open_file ~flags:Fs.wronly_create (home ^ "/left_open"))
        in
        ignore (Libc.check "write" (Libc.write fd "persisted"));
        (* exit without close *)
        Libc.exit 0)
      ~args:[ "leaker" ]
  in
  Kernel.run k;
  ignore pid;
  match Fs.read_file (Kernel.fs k) ~uid:0 (home ^ "/left_open") with
  | Ok "persisted" -> ()
  | Ok other -> Alcotest.failf "got %S" other
  | Error e -> Alcotest.fail (Errno.to_string e)

let suite =
  [
    Alcotest.test_case "symlink laundering blocked" `Quick symlink_does_not_launder_access;
    Alcotest.test_case "parent-symlink laundering blocked" `Quick
      symlinked_parent_does_not_launder_access;
    Alcotest.test_case "dot-dot after a symlink does not launder" `Quick
      dotdot_after_symlink_does_not_launder_access;
    Alcotest.test_case "hard link to protected refused" `Quick hard_link_to_protected_refused;
    Alcotest.test_case "full interface available" `Quick full_interface_available;
    Alcotest.test_case "denied calls side-effect free" `Quick denied_calls_have_no_side_effects;
    Alcotest.test_case "acl files protected" `Quick acl_files_protected;
    Alcotest.test_case "acl file unreachable through a symlink" `Quick
      acl_file_unreachable_through_symlink;
    Alcotest.test_case "setacl escalation blocked" `Quick privilege_escalation_via_setacl_blocked;
    Alcotest.test_case "dotdot escape blocked" `Quick dotdot_escape_blocked;
    Alcotest.test_case "passwd copy read-only" `Quick passwd_copy_read_only;
    Alcotest.test_case "chown denied" `Quick chown_denied;
    Alcotest.test_case "no stale state after exit" `Quick no_stale_state_after_exit;
    Alcotest.test_case "exit flushes descriptors" `Quick exit_flushes_descriptors;
  ]
