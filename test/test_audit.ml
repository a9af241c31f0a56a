module Kernel = Idbox_kernel.Kernel
module Libc = Idbox_kernel.Libc
module Box = Idbox.Box
module Audit = Idbox.Audit
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

let joe = Principal.of_string "JoeHacker"

let setup ~audit =
  let k = Kernel.create () in
  let sup = match Kernel.add_user k "alice" with Ok e -> e | Error m -> Alcotest.fail m in
  (match
     Fs.write_file (Kernel.fs k) ~uid:sup.Idbox_kernel.Account.uid ~mode:0o600
       "/home/alice/private" "secret"
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Errno.to_string e));
  let box =
    match
      Box.create k ~supervisor_uid:sup.Idbox_kernel.Account.uid ~identity:joe
        ~audit ()
    with
    | Ok b -> b
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  (k, box)

let run_in (k, box) main =
  let pid = Box.spawn_main box ~main ~args:[ "j" ] in
  Kernel.run k;
  ignore (Kernel.exit_code k pid)

let trail box =
  match Box.audit_trail box with
  | Some t -> t
  | None -> Alcotest.fail "no trail"

let records_allow_and_deny () =
  let k, box = setup ~audit:true in
  let home = Box.home box in
  run_in (k, box) (fun _ ->
      ignore (Libc.write_file (home ^ "/made") ~contents:"x");
      ignore (Libc.read_file "/home/alice/private");
      ignore (Libc.unlink "/home/alice/private");
      0);
  let t = trail box in
  let events = Audit.events t in
  Alcotest.(check bool) "events recorded" true (List.length events >= 3);
  (* The open of the visitor's own file was allowed. *)
  let find op path =
    List.find_opt
      (fun (e : Audit.event) ->
        String.equal e.Audit.ev_op op && String.equal e.Audit.ev_path path)
      events
  in
  (match find "open" (home ^ "/made") with
   | Some e -> Alcotest.(check bool) "own write allowed" true (e.Audit.ev_verdict = Audit.Allowed)
   | None -> Alcotest.fail "own open not recorded");
  (* The attack attempts were denied with EACCES, and say so. *)
  (match find "open" "/home/alice/private" with
   | Some e ->
     Alcotest.(check bool) "snoop denied" true
       (e.Audit.ev_verdict = Audit.Denied Errno.EACCES)
   | None -> Alcotest.fail "snoop not recorded");
  (match find "unlink" "/home/alice/private" with
   | Some e ->
     Alcotest.(check bool) "vandalism denied" true
       (e.Audit.ev_verdict = Audit.Denied Errno.EACCES)
   | None -> Alcotest.fail "vandalism not recorded");
  Alcotest.(check int) "two denials" 2 (List.length (Audit.denied t))

let identity_and_order () =
  let k, box = setup ~audit:true in
  let home = Box.home box in
  run_in (k, box) (fun _ ->
      ignore (Libc.mkdir (home ^ "/a"));
      ignore (Libc.mkdir (home ^ "/b"));
      0);
  let events = Audit.events (trail box) in
  List.iter
    (fun (e : Audit.event) ->
      Alcotest.(check string) "identity stamped" "JoeHacker" e.Audit.ev_identity)
    events;
  let seqs = List.map (fun (e : Audit.event) -> e.Audit.ev_seq) events in
  Alcotest.(check (list int)) "monotonic" (List.sort compare seqs) seqs;
  let times = List.map (fun (e : Audit.event) -> e.Audit.ev_time) events in
  Alcotest.(check bool) "time nondecreasing" true
    (List.for_all2 (fun a b -> Int64.compare a b <= 0)
       (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times))

let rename_records_both_paths () =
  let k, box = setup ~audit:true in
  let home = Box.home box in
  run_in (k, box) (fun _ ->
      ignore (Libc.write_file (home ^ "/x") ~contents:"1");
      ignore (Libc.rename ~src:(home ^ "/x") ~dst:(home ^ "/y"));
      0);
  let events = Audit.events (trail box) in
  match
    List.find_opt (fun (e : Audit.event) -> String.equal e.Audit.ev_op "rename") events
  with
  | Some e ->
    Alcotest.(check string) "src" (home ^ "/x") e.Audit.ev_path;
    Alcotest.(check (option string)) "dst" (Some (home ^ "/y")) e.Audit.ev_path2
  | None -> Alcotest.fail "rename not recorded"

let touched_paths_summary () =
  let k, box = setup ~audit:true in
  let home = Box.home box in
  run_in (k, box) (fun _ ->
      ignore (Libc.write_file (home ^ "/one") ~contents:"1");
      ignore (Libc.write_file (home ^ "/one") ~contents:"2");
      ignore (Libc.read_file "/home/alice/private");
      0);
  let touched = Audit.touched_paths (trail box) in
  Alcotest.(check bool) "own file listed once" true
    (List.length (List.filter (String.equal (home ^ "/one")) touched) = 1);
  Alcotest.(check bool) "denied object not in touched" true
    (not (List.mem "/home/alice/private" touched))

let fd_traffic_not_logged () =
  let k, box = setup ~audit:true in
  let home = Box.home box in
  run_in (k, box) (fun _ ->
      let fd = Libc.check "open" (Libc.open_file ~flags:Fs.wronly_create (home ^ "/f")) in
      for _ = 1 to 50 do
        ignore (Libc.write fd "chunk")
      done;
      ignore (Libc.close fd);
      0);
  (* One open recorded; the 50 writes are fd-level and excluded. *)
  let events = Audit.events (trail box) in
  Alcotest.(check bool) "small trail" true (List.length events <= 3)

let disabled_by_default () =
  let k, box = setup ~audit:false in
  run_in (k, box) (fun _ -> 0);
  Alcotest.(check bool) "no trail" true (Box.audit_trail box = None)

(* The trail is bookkeeping: an audited box ends at the same simulated
   time as an unaudited one, with every call answered the same.  Each
   stat walks four ancestors; a relative chdir is recorded as the
   directory it enters. *)
let audit_adds_no_time () =
  let run ~audit =
    let k, box = setup ~audit in
    let home = Box.home box in
    (match Fs.mkdir_p (Kernel.fs k) ~uid:0 "/home/alice/a/b/c/d" with
     | Ok () -> ()
     | Error e -> Alcotest.fail (Errno.to_string e));
    let show = function Ok _ -> "ok" | Error e -> Errno.to_string e in
    let answers = ref [] in
    let note r = answers := show r :: !answers in
    run_in (k, box) (fun _ ->
        for _ = 1 to 100 do
          note (Libc.stat "/home/alice/a/b/c/d")
        done;
        note (Libc.mkdir (home ^ "/sub"));
        note (Libc.chdir "sub");
        note (Libc.write_file "f" ~contents:"x");
        note (Libc.read_file "/home/alice/private");
        0);
    (Kernel.now k, List.rev !answers, box)
  in
  let plain_at, plain, _ = run ~audit:false in
  let audited_at, audited, box = run ~audit:true in
  Alcotest.(check (list string)) "same answers" plain audited;
  Alcotest.(check int64) "same clock" plain_at audited_at;
  Alcotest.(check bool) "the stats are recorded" true
    (List.length
       (List.filter
          (fun (e : Audit.event) -> String.equal e.Audit.ev_op "stat")
          (Audit.events (trail box)))
     = 100);
  match
    List.find_opt
      (fun (e : Audit.event) -> String.equal e.Audit.ev_op "chdir")
      (Audit.events (trail box))
  with
  | Some e -> Alcotest.(check string) "chdir target" (Box.home box ^ "/sub") e.Audit.ev_path
  | None -> Alcotest.fail "chdir not recorded"

let clear_resets () =
  let t = Audit.create () in
  Audit.record t ~time:1L ~pid:1 ~identity:"x" ~op:"open" ~path:"/p" Audit.Allowed;
  Alcotest.(check int) "one" 1 (Audit.length t);
  Audit.clear t;
  Alcotest.(check int) "zero" 0 (Audit.length t);
  Alcotest.(check (list string)) "empty" [] (Audit.touched_paths t)

let suite =
  [
    Alcotest.test_case "records allow and deny" `Quick records_allow_and_deny;
    Alcotest.test_case "identity and order" `Quick identity_and_order;
    Alcotest.test_case "rename records both paths" `Quick rename_records_both_paths;
    Alcotest.test_case "touched paths" `Quick touched_paths_summary;
    Alcotest.test_case "fd traffic not logged" `Quick fd_traffic_not_logged;
    Alcotest.test_case "disabled by default" `Quick disabled_by_default;
    Alcotest.test_case "clear resets" `Quick clear_resets;
    Alcotest.test_case "audit adds no simulated time" `Quick audit_adds_no_time;
  ]
