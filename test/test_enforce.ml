module Kernel = Idbox_kernel.Kernel
module Enforce = Idbox.Enforce
module Rights_table = Idbox.Rights_table
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"
let jane = Principal.of_string "globus:/O=UnivNowhere/CN=Jane"

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let fresh () =
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  (k, Enforce.create k ~supervisor:sup ())

let check_reads_acl_files () =
  let k, e = fresh () in
  ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 "/d");
  ok "acl"
    (Enforce.write_acl e ~dir:"/d"
       (Acl.of_entries [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rl") ]));
  (match Enforce.check_in_dir e ~identity:fred ~dir:"/d" Right.Read with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "fred denied");
  (match Enforce.check_in_dir e ~identity:fred ~dir:"/d" Right.Write with
   | Error Errno.EACCES -> ()
   | Ok () | Error _ -> Alcotest.fail "fred write allowed")

let nobody_fallback () =
  let k, e = fresh () in
  let fs = Kernel.fs k in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/open");
  ok "pub" (Fs.write_file fs ~uid:0 ~mode:0o644 "/open/pub" "x");
  ok "priv" (Fs.write_file fs ~uid:0 ~mode:0o600 "/open/priv" "x");
  (* No ACL: world-readable objects stay readable, 0600 stays private,
     and writes into a root-owned 755 dir are denied. *)
  (match Enforce.check_object e ~identity:fred ~path:"/open/pub" Right.Read with
   | Ok () -> () | Error _ -> Alcotest.fail "pub denied");
  (match Enforce.check_object e ~identity:fred ~path:"/open/priv" Right.Read with
   | Error Errno.EACCES -> () | Ok () | Error _ -> Alcotest.fail "priv allowed");
  (match Enforce.check_object e ~identity:fred ~path:"/open/new" Right.Write with
   | Error Errno.EACCES -> () | Ok () | Error _ -> Alcotest.fail "write allowed");
  (* Admin is never granted by fallback. *)
  (match Enforce.check_in_dir e ~identity:fred ~dir:"/open" Right.Admin with
   | Error Errno.EACCES -> () | Ok () | Error _ -> Alcotest.fail "admin via fallback")

let corrupt_acl_fails_closed () =
  let k, e = fresh () in
  let fs = Kernel.fs k in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/d");
  ok "junk" (Fs.write_file fs ~uid:0 ("/d/" ^ Acl.filename) "not an acl line at all");
  (match Enforce.check_in_dir e ~identity:fred ~dir:"/d" Right.Read with
   | Error Errno.EACCES -> ()
   | Ok () | Error _ -> Alcotest.fail "corrupt ACL granted access")

let governing_dir_follows_symlinks () =
  let k, e = fresh () in
  let fs = Kernel.fs k in
  ok "m1" (Fs.mkdir_p fs ~uid:0 "/a");
  ok "m2" (Fs.mkdir_p fs ~uid:0 "/b");
  ok "f" (Fs.write_file fs ~uid:0 "/b/target" "x");
  ok "ln" (Fs.symlink fs ~uid:0 ~target:"/b/target" "/a/alias");
  Alcotest.(check string) "governing dir is target's" "/b"
    (Enforce.governing_dir e "/a/alias");
  Alcotest.(check string) "plain file unchanged" "/b"
    (Enforce.governing_dir e "/b/target");
  (* Chains resolve through several hops. *)
  ok "ln2" (Fs.symlink fs ~uid:0 ~target:"/a/alias" "/a/alias2");
  Alcotest.(check string) "two hops" "/b" (Enforce.governing_dir e "/a/alias2")

let cache_coherent_across_engines () =
  let k, e1 = fresh () in
  let sup2 = Kernel.make_view k ~uid:0 () in
  let e2 = Enforce.create k ~supervisor:sup2 () in
  ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 "/d");
  ok "acl1"
    (Enforce.write_acl e1 ~dir:"/d"
       (Acl.of_entries [ Entry.make ~pattern:(Principal.to_string fred) (Rights.of_string_exn "rl") ]));
  (* e2 reads (and caches) the first version. *)
  (match Enforce.check_in_dir e2 ~identity:jane ~dir:"/d" Right.Read with
   | Error Errno.EACCES -> ()
   | Ok () | Error _ -> Alcotest.fail "jane allowed early");
  (* e1 grants jane; e2 must observe it despite its cache. *)
  ok "acl2"
    (Enforce.write_acl e1 ~dir:"/d"
       (Acl.of_entries
          [
            Entry.make ~pattern:(Principal.to_string fred) (Rights.of_string_exn "rl");
            Entry.make ~pattern:(Principal.to_string jane) (Rights.of_string_exn "r");
          ]));
  (match Enforce.check_in_dir e2 ~identity:jane ~dir:"/d" Right.Read with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "stale cache in second engine")

(* The rights table's mkdir, on one engine: the reserve right takes
   precedence over write and mints a namespace the caller owns; write
   alone inherits the parent's ACL; neither refuses. *)
let mkdir_reserve_precedence () =
  let k, e = fresh () in
  let sup = Kernel.make_view k ~uid:0 () in
  let mkdir who path =
    Rights_table.mkdir e
      { Rights_table.identity = who; limit = None }
      ~delegate:(Kernel.delegate k sup) path ~mode:0o755
  in
  ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 "/d");
  (* Both write and reserve present: reserve wins (fresh namespace). *)
  ok "acl"
    (Enforce.write_acl e ~dir:"/d"
       (Acl.of_entries
          [
            Entry.make ~pattern:"globus:/O=UnivNowhere/*"
              ~reserve:(Rights.of_string_exn "rwl")
              (Rights.of_string_exn "rwl");
          ]));
  ok "reserved mkdir" (mkdir fred "/d/reserved");
  (match Enforce.dir_acl e "/d/reserved" with
   | Some acl ->
     Alcotest.(check bool) "owner entry" true (Acl.check acl fred Right.Write);
     Alcotest.(check bool) "not jane" false (Acl.check acl jane Right.Read)
   | None -> Alcotest.fail "no fresh acl under the reserve right");
  (* Write only: inherit. *)
  let parent =
    Acl.of_entries
      [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rwl") ]
  in
  ok "acl2" (Enforce.write_acl e ~dir:"/d" parent);
  ok "written mkdir" (mkdir fred "/d/written");
  (match Enforce.dir_acl e "/d/written" with
   | Some acl -> Alcotest.(check bool) "inherited" true (Acl.equal acl parent)
   | None -> Alcotest.fail "expected inherited acl");
  (* Nothing: denied, and nothing made. *)
  (match mkdir (Principal.of_string "unix:eve") "/d/eve" with
   | Error Errno.EACCES -> ()
   | Ok () -> Alcotest.fail "eve allowed"
   | Error e -> Alcotest.fail (Errno.to_string e));
  Alcotest.(check bool) "eve made nothing" false
    (Fs.exists (Kernel.fs k) ~uid:0 "/d/eve")

let in_kernel_mode_cheaper () =
  let k = Kernel.create () in
  let e_user = Enforce.create k ~supervisor:(Kernel.make_view k ~uid:0 ()) () in
  ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 "/d");
  ok "acl"
    (Enforce.write_acl e_user ~dir:"/d"
       (Acl.of_entries [ Entry.make ~pattern:"*" (Rights.of_string_exn "rl") ]));
  let cost_of e =
    let t0 = Kernel.now k in
    ignore (Enforce.check_in_dir e ~identity:fred ~dir:"/d" Right.Read);
    Int64.sub (Kernel.now k) t0
  in
  (* Bytecode pinned off: this figure isolates the interpreter's
     delegated-vs-direct I/O gap, which the compiled program skips. *)
  let user_cost =
    cost_of
      (Enforce.create ~bytecode:false k ~supervisor:(Kernel.make_view k ~uid:0 ()) ())
  in
  let kernel_cost =
    cost_of
      (Enforce.create ~in_kernel:true ~bytecode:false k
         ~supervisor:(Kernel.make_view k ~uid:0 ()) ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "in-kernel (%Ldns) < user (%Ldns)" kernel_cost user_cost)
    true
    (Int64.compare kernel_cost user_cost < 0)

let large_acl_read () =
  (* A multi-chunk ACL file exercises the Buffer-based slurp in
     [read_acl_file]; every entry must survive the round trip. *)
  let k, e = fresh () in
  ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 "/big");
  let n = 2000 in
  let entries =
    List.init n (fun i ->
        Entry.make
          ~pattern:(Printf.sprintf "globus:/O=UnivNowhere/CN=user%04d" i)
          (Rights.of_string_exn "rl"))
  in
  ok "acl" (Enforce.write_acl e ~dir:"/big" (Acl.of_entries entries));
  let user i = Principal.of_string (Printf.sprintf "globus:/O=UnivNowhere/CN=user%04d" i) in
  (match Enforce.check_in_dir e ~identity:(user 0) ~dir:"/big" Right.Read with
   | Ok () -> () | Error _ -> Alcotest.fail "first entry lost");
  (match Enforce.check_in_dir e ~identity:(user (n - 1)) ~dir:"/big" Right.Read with
   | Ok () -> () | Error _ -> Alcotest.fail "last entry lost");
  (match Enforce.check_in_dir e ~identity:jane ~dir:"/big" Right.Read with
   | Error Errno.EACCES -> ()
   | Ok () | Error _ -> Alcotest.fail "unlisted identity allowed")

let cache_counters () =
  let module Metrics = Idbox_kernel.Metrics in
  (* Bytecode pinned off: this test counts the ACL-cache tier, which the
     compiled program would answer ahead of. *)
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  let e = Enforce.create ~bytecode:false k ~supervisor:sup () in
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 "/d");
  ok "acl"
    (Enforce.write_acl e ~dir:"/d"
       (Acl.of_entries [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rl") ]));
  (* write_acl primes the cache with the freshly written ACL; drop that
     so the first check below really goes to disk. *)
  Enforce.invalidate e ~dir:"/d";
  let misses0 = value "acl.cache.miss" and hits0 = value "acl.cache.hit" in
  ignore (Enforce.check_in_dir e ~identity:fred ~dir:"/d" Right.Read);
  Alcotest.(check int) "first check misses" (misses0 + 1) (value "acl.cache.miss");
  (* Repeating fred's exact check and a different principal's check are
     both served from the cached ACL. *)
  ignore (Enforce.check_in_dir e ~identity:fred ~dir:"/d" Right.Read);
  Alcotest.(check int) "repeat check hits acl cache" (hits0 + 1)
    (value "acl.cache.hit");
  ignore (Enforce.check_in_dir e ~identity:jane ~dir:"/d" Right.Read);
  Alcotest.(check int) "new principal hits acl cache" (hits0 + 2)
    (value "acl.cache.hit");
  Alcotest.(check int) "no further misses" (misses0 + 1) (value "acl.cache.miss");
  (* Invalidation is counted and forces the next check back to disk. *)
  let inval0 = value "acl.cache.invalidate" in
  Enforce.invalidate e ~dir:"/d";
  Alcotest.(check int) "invalidation counted" (inval0 + 1) (value "acl.cache.invalidate");
  ignore (Enforce.check_in_dir e ~identity:fred ~dir:"/d" Right.Read);
  Alcotest.(check int) "post-invalidate miss" (misses0 + 2) (value "acl.cache.miss")

let suite =
  [
    Alcotest.test_case "check reads acl files" `Quick check_reads_acl_files;
    Alcotest.test_case "nobody fallback" `Quick nobody_fallback;
    Alcotest.test_case "corrupt acl fails closed" `Quick corrupt_acl_fails_closed;
    Alcotest.test_case "governing dir follows symlinks" `Quick governing_dir_follows_symlinks;
    Alcotest.test_case "cache coherent across engines" `Quick cache_coherent_across_engines;
    Alcotest.test_case "mkdir reserve precedence" `Quick mkdir_reserve_precedence;
    Alcotest.test_case "in-kernel mode cheaper" `Quick in_kernel_mode_cheaper;
    Alcotest.test_case "large acl read" `Quick large_acl_read;
    Alcotest.test_case "cache hit/miss counters" `Quick cache_counters;
  ]
