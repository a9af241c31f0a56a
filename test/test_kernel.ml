module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Program = Idbox_kernel.Program
module Syscall = Idbox_kernel.Syscall
module Trace = Idbox_kernel.Trace
module Clock = Idbox_kernel.Clock
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

let errno = Alcotest.testable Errno.pp Errno.equal

let run_main ?(uid = 0) ?(cwd = "/") ?env kernel main =
  let pid = Kernel.spawn_main kernel ?env ~uid ~cwd ~main ~args:[ "test" ] () in
  Kernel.run kernel;
  (pid, Kernel.exit_code kernel pid)

let exit_code_flows () =
  let k = Kernel.create () in
  let _, code = run_main k (fun _ -> 42) in
  Alcotest.(check (option int)) "return value" (Some 42) code;
  let _, code = run_main k (fun _ -> Libc.exit 7) in
  Alcotest.(check (option int)) "explicit exit" (Some 7) code

let pids_and_identity_calls () =
  let k = Kernel.create () in
  let seen = ref (-1, -1, -1) in
  let _, code =
    run_main ~uid:0 k (fun _ ->
        seen := (Libc.getpid (), Libc.getppid (), Libc.getuid ());
        0)
  in
  Alcotest.(check (option int)) "ok" (Some 0) code;
  let pid, ppid, uid = !seen in
  Alcotest.(check bool) "pid positive" true (pid > 0);
  Alcotest.(check int) "host parent" 0 ppid;
  Alcotest.(check int) "uid" 0 uid

let get_user_name_account () =
  let k = Kernel.create () in
  let entry =
    match Account.add (Kernel.accounts k) "dthain" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  let name = ref "" in
  let _, _ = run_main ~uid:entry.Account.uid k (fun _ -> name := Libc.get_user_name (); 0) in
  Alcotest.(check string) "account name" "dthain" !name;
  (* Unknown uid degrades gracefully. *)
  let _, _ = run_main ~uid:4242 k (fun _ -> name := Libc.get_user_name (); 0) in
  Alcotest.(check string) "unknown uid" "uid4242" !name

let spawn_and_wait () =
  let k = Kernel.create () in
  Kernel.with_fresh_programs (fun () ->
      Program.register "child" (fun args ->
          match args with _ :: code :: _ -> int_of_string code | _ -> 0);
      let fs = Kernel.fs k in
      (match
         Fs.write_file fs ~uid:0 ~mode:0o755 "/bin/child" (Program.marker "child")
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      let result = ref (0, 0) in
      let _, code =
        run_main k (fun _ ->
            let pid = Libc.check "spawn" (Libc.spawn "/bin/child" ~args:[ "child"; "9" ]) in
            result := Libc.check "wait" (Libc.waitpid pid);
            0)
      in
      Alcotest.(check (option int)) "parent ok" (Some 0) code;
      let wpid, status = !result in
      Alcotest.(check bool) "waited right child" true (wpid > 0);
      Alcotest.(check int) "child status" 9 status)

let wait_any_and_echild () =
  let k = Kernel.create () in
  Kernel.with_fresh_programs (fun () ->
      Program.register "quick" (fun _ -> 1);
      (match
         Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/bin/quick"
           (Program.marker "quick")
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      let observed = ref [] in
      let _, code =
        run_main k (fun _ ->
            let p1 = Libc.check "s1" (Libc.spawn "/bin/quick" ~args:[ "q" ]) in
            let p2 = Libc.check "s2" (Libc.spawn "/bin/quick" ~args:[ "q" ]) in
            let w1 = Libc.check "w1" (Libc.waitpid (-1)) in
            let w2 = Libc.check "w2" (Libc.waitpid (-1)) in
            observed := [ fst w1; fst w2; p1; p2 ];
            (* No children left: ECHILD. *)
            match Libc.waitpid (-1) with
            | Error Errno.ECHILD -> 0
            | Ok _ | Error _ -> 1)
      in
      Alcotest.(check (option int)) "echild path" (Some 0) code;
      match !observed with
      | [ w1; w2; p1; p2 ] ->
        Alcotest.(check bool) "reaped both" true
          (List.sort compare [ w1; w2 ] = List.sort compare [ p1; p2 ])
      | _ -> Alcotest.fail "observation missing")

let waitpid_blocks_until_child_exits () =
  let k = Kernel.create () in
  Kernel.with_fresh_programs (fun () ->
      Program.register "slow" (fun _ ->
          Libc.compute 5_000_000L;
          3);
      (match
         Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/bin/slow"
           (Program.marker "slow")
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      let _, code =
        run_main k (fun _ ->
            let pid = Libc.check "spawn" (Libc.spawn "/bin/slow" ~args:[ "s" ]) in
            (* The child has not run yet; this wait must block, then
               return its status. *)
            let _, status = Libc.check "wait" (Libc.waitpid pid) in
            status)
      in
      Alcotest.(check (option int)) "status through blocking wait" (Some 3) code)

(* [release] frees only an exited process that no parent can still wait
   for. *)
let release_spares_waitable_zombies () =
  let k = Kernel.create () in
  Kernel.with_fresh_programs (fun () ->
      Program.register "quick" (fun _ -> 0);
      (match
         Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/bin/quick"
           (Program.marker "quick")
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      let child = ref 0 in
      let parent =
        Kernel.spawn_main k
          ~main:(fun _ ->
            let rd, _wr = Libc.check "pipe" (Libc.pipe ()) in
            child := Libc.check "spawn" (Libc.spawn "/bin/quick" ~args:[ "q" ]);
            (* Never waits: blocks on a pipe whose write end it holds. *)
            ignore (Libc.read rd ~len:1);
            0)
          ~args:[ "p" ] ()
      in
      Kernel.run k;
      let known pid = List.mem_assoc pid (Kernel.process_states k) in
      Kernel.release k !child;
      Kernel.release k parent;
      Alcotest.(check bool) "zombie of a live parent kept" true (known !child);
      Alcotest.(check bool) "live process kept" true (known parent);
      ignore (Kernel.kill k ~pid:parent ~signal:9);
      Kernel.release k !child;
      Kernel.release k parent;
      Alcotest.(check bool) "zombie of an exited parent freed" false
        (known !child);
      Alcotest.(check bool) "exited process without a parent freed" false
        (known parent))

let spawn_checks_exec () =
  let k = Kernel.create () in
  Kernel.with_fresh_programs (fun () ->
      Program.register "p" (fun _ -> 0);
      let fs = Kernel.fs k in
      (match Fs.write_file fs ~uid:0 ~mode:0o644 "/bin/noexec" (Program.marker "p") with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      (match Fs.write_file fs ~uid:0 ~mode:0o755 "/bin/garbage" "not a program" with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      let _, code =
        run_main ~uid:1000 k (fun _ ->
            match Libc.spawn "/bin/noexec" ~args:[ "x" ] with
            | Error Errno.EACCES ->
              (match Libc.spawn "/bin/garbage" ~args:[ "x" ] with
               | Error Errno.EINVAL ->
                 (match Libc.spawn "/bin/missing" ~args:[ "x" ] with
                  | Error Errno.ENOENT -> 0
                  | Ok _ | Error _ -> 3)
               | Ok _ | Error _ -> 2)
            | Ok _ | Error _ -> 1)
      in
      Alcotest.(check (option int)) "exec checks" (Some 0) code)

let kill_permissions () =
  let k = Kernel.create () in
  (* The victim yields between many short compute slices, so killers run
     concurrently under the cooperative scheduler. *)
  let victim_main _ =
    for _ = 1 to 10_000 do
      Libc.compute 1_000_000L
    done;
    0
  in
  let victim = Kernel.spawn_main k ~uid:2000 ~main:victim_main ~args:[ "v" ] () in
  let stranger_result = ref None in
  let _ =
    Kernel.spawn_main k ~uid:1000
      ~main:(fun _ ->
        stranger_result := Some (Libc.kill ~pid:victim ~signal:9);
        0)
      ~args:[ "k1" ] ()
  in
  let owner_result = ref None in
  let _ =
    Kernel.spawn_main k ~uid:2000
      ~main:(fun _ ->
        owner_result := Some (Libc.kill ~pid:victim ~signal:9);
        (* Killing a dead process: ESRCH. *)
        (match Libc.kill ~pid:victim ~signal:9 with
         | Error Errno.ESRCH -> ()
         | Ok () | Error _ -> Libc.exit 1);
        0)
      ~args:[ "k2" ] ()
  in
  Kernel.run k;
  (match !stranger_result with
   | Some (Error Errno.EPERM) -> ()
   | _ -> Alcotest.fail "cross-uid kill should be EPERM");
  (match !owner_result with
   | Some (Ok ()) -> ()
   | _ -> Alcotest.fail "owner kill should succeed");
  Alcotest.(check (option int)) "victim died 128+9" (Some 137)
    (Kernel.exit_code k victim)

let fd_lifecycle_and_lseek () =
  let k = Kernel.create () in
  let _, code =
    run_main k (fun _ ->
        let fd = Libc.check "open" (Libc.open_file ~flags:Fs.wronly_create "/tmp/f") in
        ignore (Libc.check "w" (Libc.write fd "abcdef"));
        ignore (Libc.check "close" (Libc.close fd));
        (match Libc.read fd ~len:1 with
         | Error Errno.EBADF -> ()
         | Ok _ | Error _ -> Libc.exit 1);
        let fd = Libc.check "open2" (Libc.open_file "/tmp/f") in
        let pos = Libc.check "seek" (Libc.lseek fd ~off:2 ~whence:Syscall.Seek_set) in
        if pos <> 2 then Libc.exit 2;
        let s = Libc.check "read" (Libc.read fd ~len:2) in
        if not (String.equal s "cd") then Libc.exit 3;
        let pos = Libc.check "seek_cur" (Libc.lseek fd ~off:1 ~whence:Syscall.Seek_cur) in
        if pos <> 5 then Libc.exit 4;
        let pos = Libc.check "seek_end" (Libc.lseek fd ~off:(-1) ~whence:Syscall.Seek_end) in
        if pos <> 5 then Libc.exit 5;
        (match Libc.lseek fd ~off:(-10) ~whence:Syscall.Seek_set with
         | Error Errno.EINVAL -> ()
         | Ok _ | Error _ -> Libc.exit 6);
        (* Writing a read-only fd is EBADF. *)
        (match Libc.write fd "x" with
         | Error Errno.EBADF -> ()
         | Ok _ | Error _ -> Libc.exit 7);
        0)
  in
  Alcotest.(check (option int)) "fd lifecycle" (Some 0) code

let append_mode () =
  let k = Kernel.create () in
  let _, code =
    run_main k (fun _ ->
        ignore (Libc.check "seed" (Libc.write_file "/tmp/log" ~contents:"one\n"));
        let flags =
          { Fs.rd = false; wr = true; creat = false; excl = false; trunc = false;
            append = true }
        in
        let fd = Libc.check "open" (Libc.open_file ~flags "/tmp/log") in
        ignore (Libc.check "append" (Libc.write fd "two\n"));
        ignore (Libc.close fd);
        if String.equal (Libc.check "read" (Libc.read_file "/tmp/log")) "one\ntwo\n"
        then 0 else 1)
  in
  Alcotest.(check (option int)) "append" (Some 0) code

let env_inheritance () =
  let k = Kernel.create () in
  Kernel.with_fresh_programs (fun () ->
      Program.register "envchild" (fun _ ->
          match Libc.getenv "FLAVOR" with
          | Some "vanilla" -> 0
          | Some _ | None -> 1);
      (match
         Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/bin/envchild"
           (Program.marker "envchild")
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      let _, code =
        run_main k (fun _ ->
            Libc.setenv "FLAVOR" "vanilla";
            let pid = Libc.check "spawn" (Libc.spawn "/bin/envchild" ~args:[ "e" ]) in
            let _, status = Libc.check "wait" (Libc.waitpid pid) in
            status)
      in
      Alcotest.(check (option int)) "child saw env" (Some 0) code)

let cwd_and_chdir () =
  let k = Kernel.create () in
  let _, code =
    run_main k (fun _ ->
        if not (String.equal (Libc.getcwd ()) "/") then Libc.exit 1;
        ignore (Libc.check "mkdir" (Libc.mkdir "/tmp/there"));
        Libc.check "chdir" (Libc.chdir "/tmp/there") |> ignore;
        if not (String.equal (Libc.getcwd ()) "/tmp/there") then Libc.exit 2;
        (* Relative operations resolve against the cwd. *)
        ignore (Libc.check "relwrite" (Libc.write_file "rel.txt" ~contents:"here"));
        (match Libc.read_file "/tmp/there/rel.txt" with
         | Ok "here" -> ()
         | Ok _ | Error _ -> Libc.exit 3);
        (match Libc.chdir "/tmp/there/rel.txt" with
         | Error Errno.ENOTDIR -> ()
         | Ok () | Error _ -> Libc.exit 4);
        0)
  in
  Alcotest.(check (option int)) "cwd" (Some 0) code

let clock_monotone_and_compute () =
  let k = Kernel.create () in
  let t0 = Kernel.now k in
  let _, _ = run_main k (fun _ -> Libc.compute 123_456L; 0) in
  let elapsed = Int64.sub (Kernel.now k) t0 in
  Alcotest.(check bool) "compute charged" true (Int64.compare elapsed 123_456L >= 0)

let stats_accounting () =
  let k = Kernel.create () in
  let s = Kernel.stats k in
  let calls0 = s.Kernel.syscalls in
  let _, _ =
    run_main k (fun _ ->
        for _ = 1 to 10 do
          ignore (Libc.getpid ())
        done;
        Libc.compute 1L;
        0)
  in
  (* 10 getpids are syscalls; compute is not, and a normal return makes
     no exit call. *)
  Alcotest.(check int) "syscall count" 10 (s.Kernel.syscalls - calls0);
  Alcotest.(check int) "nothing trapped" 0 s.Kernel.trapped

let tracer_passthrough_charges () =
  (* A do-nothing tracer must not change results, only cost. *)
  let k_plain = Kernel.create () in
  let k_traced = Kernel.create () in
  let body _ =
    ignore (Libc.check "w" (Libc.write_file "/tmp/x" ~contents:"data"));
    (match Libc.read_file "/tmp/x" with Ok "data" -> 0 | Ok _ | Error _ -> 1)
  in
  let t0 = Kernel.now k_plain in
  let _, plain_code = run_main k_plain body in
  let plain_cost = Int64.sub (Kernel.now k_plain) t0 in
  let pid =
    Kernel.spawn_main k_traced ~uid:0 ~cwd:"/" ~tracer:Trace.pass_through ~main:body
      ~args:[ "t" ] ()
  in
  let t0 = Kernel.now k_traced in
  Kernel.run k_traced;
  let traced_cost = Int64.sub (Kernel.now k_traced) t0 in
  Alcotest.(check (option int)) "same result" plain_code (Kernel.exit_code k_traced pid);
  Alcotest.(check bool) "tracing costs more" true
    (Int64.compare traced_cost plain_cost > 0);
  Alcotest.(check bool) "trap counted" true ((Kernel.stats k_traced).Kernel.trapped > 0)

let tracer_deny_injects_errno () =
  let k = Kernel.create () in
  let deny_unlink =
    {
      Trace.pass_through with
      Trace.on_entry =
        (fun ~pid:_ req ->
          match req with
          | Syscall.Unlink _ -> Trace.Deny Errno.EPERM
          | _ -> Trace.Pass);
    }
  in
  let got = ref None in
  let pid =
    Kernel.spawn_main k ~uid:0 ~cwd:"/" ~tracer:deny_unlink
      ~main:(fun _ ->
        ignore (Libc.write_file "/tmp/f" ~contents:"x");
        (match Libc.unlink "/tmp/f" with
         | Error e -> got := Some e
         | Ok () -> ());
        0)
      ~args:[ "t" ] ()
  in
  Kernel.run k;
  Alcotest.(check (option int)) "exited" (Some 0) (Kernel.exit_code k pid);
  Alcotest.(check (option errno)) "EPERM injected" (Some Errno.EPERM) !got;
  (* The file was NOT unlinked: the call was nullified. *)
  Alcotest.(check bool) "file intact" true (Fs.exists (Kernel.fs k) ~uid:0 "/tmp/f")

let tracer_rewrite_redirects () =
  let k = Kernel.create () in
  (match Fs.write_file (Kernel.fs k) ~uid:0 "/tmp/real" "redirected!" with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Errno.to_string e));
  let rewrite =
    {
      Trace.pass_through with
      Trace.on_entry =
        (fun ~pid:_ req ->
          match req with
          | Syscall.Open { path = "/tmp/fake"; flags; mode } ->
            Trace.Rewrite (Syscall.Open { path = "/tmp/real"; flags; mode })
          | _ -> Trace.Pass);
    }
  in
  let content = ref "" in
  let pid =
    Kernel.spawn_main k ~uid:0 ~cwd:"/" ~tracer:rewrite
      ~main:(fun _ ->
        (match Libc.read_file "/tmp/fake" with
         | Ok s -> content := s
         | Error _ -> ());
        0)
      ~args:[ "t" ] ()
  in
  Kernel.run k;
  ignore (Kernel.exit_code k pid);
  Alcotest.(check string) "redirected" "redirected!" !content

let children_inherit_tracer () =
  let k = Kernel.create () in
  Kernel.with_fresh_programs (fun () ->
      Program.register "grandchild" (fun _ -> 0);
      (match
         Fs.write_file (Kernel.fs k) ~uid:0 ~mode:0o755 "/bin/grandchild"
           (Program.marker "grandchild")
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Errno.to_string e));
      let spawned = ref [] in
      let tracer =
        {
          Trace.pass_through with
          Trace.on_event =
            (fun ev ->
              match ev with
              | Trace.Spawned { pid; _ } -> spawned := pid :: !spawned
              | Trace.Exited _ -> ());
        }
      in
      let pid =
        Kernel.spawn_main k ~uid:0 ~cwd:"/" ~tracer
          ~main:(fun _ ->
            let c = Libc.check "spawn" (Libc.spawn "/bin/grandchild" ~args:[ "g" ]) in
            ignore (Libc.check "wait" (Libc.waitpid c));
            0)
          ~args:[ "t" ] ()
      in
      Kernel.run k;
      ignore pid;
      (* Both the root process and its child hit the Spawned event. *)
      Alcotest.(check int) "two spawn events" 2 (List.length !spawned))

let security_hook_denies () =
  let k = Kernel.create () in
  Kernel.set_security_hook k
    (Some
       (fun ~pid:_ _view req ->
         match req with
         | Syscall.Mkdir _ -> Idbox_kernel.Sysent.Deny Errno.EPERM
         | _ -> Idbox_kernel.Sysent.Allow));
  let _, code =
    run_main k (fun _ ->
        match Libc.mkdir "/tmp/blocked" with
        | Error Errno.EPERM ->
          (* Other calls still work. *)
          (match Libc.write_file "/tmp/ok" ~contents:"y" with
           | Ok () -> 0
           | Error _ -> 2)
        | Ok () | Error _ -> 1)
  in
  Alcotest.(check (option int)) "hook denies mkdir only" (Some 0) code;
  Alcotest.(check bool) "nothing created" false (Fs.exists (Kernel.fs k) ~uid:0 "/tmp/blocked")

(* The hook's third outcome: it serves the call itself.  The caller
   gets the hook's result, the kernel's handler never runs, and the call
   is still counted, timed and spanned like any other. *)
let security_hook_answers () =
  let k = Kernel.create () in
  Kernel.set_security_hook k
    (Some
       (fun ~pid:_ _view req ->
         match req with
         | Syscall.Mkdir _ -> Idbox_kernel.Sysent.Answer Syscall.Unit
         | Syscall.Getcwd -> Idbox_kernel.Sysent.Answer (Syscall.Str "/answered")
         | _ -> Idbox_kernel.Sysent.Allow));
  let _, code =
    run_main k (fun _ ->
        match (Libc.mkdir "/tmp/answered", Libc.getcwd ()) with
        | Ok (), "/answered" -> 0
        | _ -> 1)
  in
  Alcotest.(check (option int)) "the hook's answers delivered" (Some 0) code;
  Alcotest.(check bool) "the handler never ran" false
    (Fs.exists (Kernel.fs k) ~uid:0 "/tmp/answered");
  let m = Kernel.metrics k in
  Alcotest.(check int) "answered mkdir counted" 1
    (Idbox_kernel.Metrics.counter_value_of m "syscall.mkdir");
  (match Idbox_kernel.Metrics.find_histogram m "syscall.mkdir.ns" with
   | Some h -> Alcotest.(check int) "and timed" 1 (Idbox_kernel.Metrics.count h)
   | None -> Alcotest.fail "no mkdir histogram");
  Alcotest.(check bool) "and spanned" true
    (List.exists
       (fun (sp : Idbox_kernel.Trace.span) ->
         String.equal sp.Idbox_kernel.Trace.sp_syscall "mkdir")
       (Idbox_kernel.Trace.to_list (Kernel.trace_ring k)))

let identity_provider_overrides () =
  let k = Kernel.create () in
  Kernel.set_identity_provider k
    (Some (fun pid -> if pid > 0 then Some "globus:/O=X/CN=Hooked" else None));
  let name = ref "" in
  let _, _ = run_main k (fun _ -> name := Libc.get_user_name (); 0) in
  Alcotest.(check string) "provider answers" "globus:/O=X/CN=Hooked" !name

let shared_clock_hosts () =
  let clock = Clock.create () in
  let k1 = Kernel.create ~clock () in
  let k2 = Kernel.create ~clock () in
  let _, _ = run_main k1 (fun _ -> Libc.compute 1000L; 0) in
  Alcotest.(check bool) "k2 sees k1's time" true
    (Int64.compare (Kernel.now k2) 1000L >= 0)

let suite =
  [
    Alcotest.test_case "exit codes" `Quick exit_code_flows;
    Alcotest.test_case "pids and identity calls" `Quick pids_and_identity_calls;
    Alcotest.test_case "get_user_name from accounts" `Quick get_user_name_account;
    Alcotest.test_case "spawn and wait" `Quick spawn_and_wait;
    Alcotest.test_case "wait any / ECHILD" `Quick wait_any_and_echild;
    Alcotest.test_case "blocking waitpid" `Quick waitpid_blocks_until_child_exits;
    Alcotest.test_case "release spares waitable zombies" `Quick
      release_spares_waitable_zombies;
    Alcotest.test_case "spawn exec checks" `Quick spawn_checks_exec;
    Alcotest.test_case "kill permissions" `Quick kill_permissions;
    Alcotest.test_case "fd lifecycle and lseek" `Quick fd_lifecycle_and_lseek;
    Alcotest.test_case "append mode" `Quick append_mode;
    Alcotest.test_case "env inheritance" `Quick env_inheritance;
    Alcotest.test_case "cwd and chdir" `Quick cwd_and_chdir;
    Alcotest.test_case "clock and compute" `Quick clock_monotone_and_compute;
    Alcotest.test_case "stats accounting" `Quick stats_accounting;
    Alcotest.test_case "tracer passthrough" `Quick tracer_passthrough_charges;
    Alcotest.test_case "tracer deny injects errno" `Quick tracer_deny_injects_errno;
    Alcotest.test_case "tracer rewrite redirects" `Quick tracer_rewrite_redirects;
    Alcotest.test_case "children inherit tracer" `Quick children_inherit_tracer;
    Alcotest.test_case "security hook" `Quick security_hook_denies;
    Alcotest.test_case "security hook answers" `Quick security_hook_answers;
    Alcotest.test_case "identity provider" `Quick identity_provider_overrides;
    Alcotest.test_case "shared clock hosts" `Quick shared_clock_hosts;
  ]
