(* Property suite for the compiled-policy bytecode (ISSUE 9): a
   bytecode-enabled engine, a caching engine with bytecode
   pinned off, and a cache-disabled engine all watch the same kernel
   while the namespace is mutated at random — the same storm shape as
   test_enforce_cache (files written and unlinked, renames, a symlink
   retargeted, ACLs rewritten through the engine and behind its back,
   and test_enforce_cache's ACL-relevant kinds: writes through symlinks
   to an ACL file, in-place writes, ACL files renamed in and out,
   re-created and chmodded), plus delegated checks whose backing chain
   is revoked mid-storm.
   After every mutation, every (path, principal, right) verdict must be
   byte-identical across the three engines: the compiled program may
   only ever change the cost of an answer, never the answer.  And the
   fail-closed contract: a program the verifier rejects is never
   installed — the engine keeps answering through the interpreter.
   Seeded and deterministic. *)

module Kernel = Idbox_kernel.Kernel
module Metrics = Idbox_kernel.Metrics
module Policy = Idbox_kernel.Policy
module Enforce = Idbox.Enforce
module Rights_table = Idbox.Rights_table
module Policy_compile = Idbox.Policy_compile
module Ca = Idbox_auth.Ca
module Delegation = Idbox_auth.Delegation
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

(* CI reruns the storm under extra seeds via the same knob the chaos
   suites honour. *)
(* A row of one question: [right] on the object at the first path. *)
let object_row right =
  {
    Rights_table.guard = false;
    reserve = false;
    questions = [ { Rights_table.arg = 0; target = Rights_table.Object; right; or_write = false } ];
    or_else = [];
  }

let seeds =
  let base = [ 1; 7; 42; 2005; 90210 ] in
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try (int_of_string s mod 1_000_000) :: base with _ -> base)
  | None -> base

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"
let jane = Principal.of_string "globus:/O=UnivNowhere/CN=Jane"
let alice = Principal.of_string "kerberos:alice@NOWHERE.EDU"
let identities = [ fred; jane; alice ]
let rights = [ Right.Read; Right.Write; Right.List; Right.Admin; Right.Delete ]

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let dirs = [ "/w/a"; "/w/b"; "/w/c" ]

(* Objects that may or may not exist at any moment, the symlinks (among
   them the links to ACL files), the directories themselves, a
   subdirectory that comes and goes, a child of it, and an ACL file. *)
let probes =
  ("/w/ln" :: "/w/acl_ln" :: "/w/a/sub" :: "/w/a/sub/f0" :: "/w/b/.__acl" :: dirs)
  @ List.concat_map
      (fun d ->
        (d ^ "/acl_ln") :: List.init 3 (fun i -> Printf.sprintf "%s/f%d" d i))
      dirs

let patterns =
  [ "globus:/O=UnivNowhere/CN=Fred"; "globus:/O=UnivNowhere/*"; "kerberos:*" ]

let random_acl st =
  let n = 1 + Random.State.int st 3 in
  let all = "rwlxad" in
  Acl.of_entries
    (List.init n (fun i ->
         let pattern = List.nth patterns ((i + Random.State.int st 3) mod 3) in
         let k = 1 + Random.State.int st (String.length all - 1) in
         Entry.make ~pattern (Rights.of_string_exn (String.sub all 0 k))))

let setup () =
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  let bytecode = Enforce.create ~bytecode:true k ~supervisor:sup () in
  let cached = Enforce.create ~bytecode:false k ~supervisor:sup () in
  let uncached = Enforce.create ~caching:false k ~supervisor:sup () in
  List.iter
    (fun d ->
      ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 d);
      ok "seed file" (Fs.write_file (Kernel.fs k) ~uid:0 (d ^ "/f0") "seed"))
    dirs;
  ok "acl a"
    (Enforce.write_acl bytecode ~dir:"/w/a"
       (Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=UnivNowhere/CN=Fred"
              (Rights.of_string_exn "rwl");
            Entry.make ~pattern:"kerberos:*" (Rights.of_string_exn "rl") ]));
  ok "symlink" (Fs.symlink (Kernel.fs k) ~uid:0 ~target:"/w/a/f0" "/w/ln");
  (k, bytecode, cached, uncached)

let verdict e identity path right =
  match Enforce.check_object e ~identity ~path right with
  | Ok () -> "ok"
  | Error e -> Errno.to_string e

let delegated_verdict e identity path right =
  match
    Rights_table.authorize e
      {
        Rights_table.identity;
        limit = Some { Rights_table.grant = Rights.of_string_exn "rl"; scope = "/w" };
      }
      (object_row right)
      [ path ]
  with
  | Ok () -> "ok"
  | Error e -> Errno.to_string e

let compare_engines (bytecode, cached, uncached) ~seed ~step =
  List.iter
    (fun path ->
      List.iter
        (fun identity ->
          List.iter
            (fun right ->
              let want = verdict uncached identity path right in
              let via_cache = verdict cached identity path right in
              let via_bc = verdict bytecode identity path right in
              if not (String.equal want via_cache && String.equal want via_bc)
              then
                Alcotest.failf
                  "seed %d step %d: %s %s %c: uncached=%s cached=%s \
                   bytecode=%s"
                  seed step
                  (Principal.to_string identity)
                  path (Right.to_char right) want via_cache via_bc;
              (* The delegated composition: the chain-grant intersection
                 must narrow every tier identically. *)
              let dwant = delegated_verdict uncached identity path right in
              let dbc = delegated_verdict bytecode identity path right in
              if not (String.equal dwant dbc) then
                Alcotest.failf
                  "seed %d step %d: delegated %s %s %c: uncached=%s \
                   bytecode=%s"
                  seed step
                  (Principal.to_string identity)
                  path (Right.to_char right) dwant dbc)
            rights)
        identities)
    probes

let mutate st k engine =
  let fs = Kernel.fs k in
  let dir () = List.nth dirs (Random.State.int st 3) in
  let file () = Printf.sprintf "%s/f%d" (dir ()) (Random.State.int st 3) in
  let acl_file () = dir () ^ "/" ^ Enforce.acl_filename in
  let mode () = if Random.State.bool st then 0o755 else 0o700 in
  match Random.State.int st (15 + Test_enforce_cache.acl_mutation_kinds) with
  | 0 -> ignore (Fs.write_file fs ~uid:0 (file ()) "data")
  | 1 -> ignore (Fs.unlink fs ~uid:0 (file ()))
  | 2 -> ignore (Fs.rename fs ~uid:0 ~src:(file ()) ~dst:(file ()))
  | 3 ->
    ignore (Fs.unlink fs ~uid:0 "/w/ln");
    ignore (Fs.symlink fs ~uid:0 ~target:(file ()) "/w/ln")
  | 4 -> ignore (Enforce.write_acl engine ~dir:(dir ()) (random_acl st))
  | 5 ->
    ignore (Fs.write_file fs ~uid:0 (acl_file ()) (Acl.to_string (random_acl st)))
  | 6 -> ignore (Fs.chmod fs ~uid:0 ~mode:(mode ()) (file ()))
  | 7 -> ignore (Fs.link fs ~uid:0 ~target:(file ()) (file ()))
  | 8 -> ignore (Fs.rename fs ~uid:0 ~src:(file ()) ~dst:"/w/ln")
  | 9 -> ignore (Fs.unlink fs ~uid:0 "/w/ln")
  | 10 -> ignore (Fs.symlink fs ~uid:0 ~target:(file ()) "/w/ln")
  | 11 -> ignore (Fs.rename fs ~uid:0 ~src:(file ()) ~dst:(acl_file ()))
  | 12 -> ignore (Fs.rename fs ~uid:0 ~src:(acl_file ()) ~dst:(file ()))
  | 13 ->
    if Random.State.bool st then
      ignore (Fs.mkdir fs ~uid:0 ~mode:(mode ()) "/w/a/sub")
    else ignore (Fs.rmdir fs ~uid:0 "/w/a/sub")
  | 14 -> ignore (Fs.chmod fs ~uid:0 ~mode:(mode ()) (dir ()))
  | n -> Test_enforce_cache.acl_mutation st k (n - 15)

(* The tentpole property: under the mutation storm — ACL edits through
   and behind the engine, renames, symlink retargeting — the bytecode
   engine answers byte-identically to both interpreter tiers at every
   step, and actually uses its program (hits > 0, at least one
   recompile beyond the initial one). *)
let equivalence_under_storm () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let ((k, bytecode, cached, uncached) as env) = setup () in
      ignore env;
      compare_engines (bytecode, cached, uncached) ~seed ~step:(-1);
      for step = 0 to 59 do
        mutate st k bytecode;
        compare_engines (bytecode, cached, uncached) ~seed ~step
      done;
      let value name = Metrics.counter_value_of (Kernel.metrics k) name in
      if value "kernel.bytecode.hit" = 0 then
        Alcotest.failf "seed %d: bytecode never answered" seed;
      if value "kernel.bytecode.recompile" < 2 then
        Alcotest.failf "seed %d: no recompile under mutation" seed;
      if value "kernel.bytecode.stale" = 0 then
        Alcotest.failf "seed %d: staleness never observed" seed)
    seeds

(* The invalidation rule itself: a program stays valid while the
   policy generation stands still.  Compile once per policy generation
   and, after every mutation that leaves it unchanged, every answer the
   old program gives (Allow or Deny; Unknown defers to the interpreter)
   must equal the uncached interpreter's verdict on the mutated tree,
   for object probes and for in-directory checks alike. *)
let stale_program_sound_at_same_policy_generation () =
  let in_dirs = "/w" :: "/w/a/sub" :: dirs in
  let dir_verdict e identity dir right =
    match Enforce.check_in_dir e ~identity ~dir right with
    | Ok () -> "ok"
    | Error e -> Errno.to_string e
  in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let k, bytecode, _, uncached = setup () in
      let fs = Kernel.fs k in
      let compile () =
        (Fs.policy_generation fs, Result.to_option (Policy_compile.compile fs ~uid:0))
      in
      let prog = ref (compile ()) in
      let answered = ref 0 in
      for step = 0 to 199 do
        mutate st k bytecode;
        match !prog with
        | gen, _ when Fs.policy_generation fs <> gen -> prog := compile ()
        | _, None -> ()
        | gen, Some p ->
          let agree what identity right got want =
            let got =
              match got with
              | Policy.Allow -> Some "ok"
              | Policy.Deny -> Some (Errno.to_string Errno.EACCES)
              | Policy.Unknown -> None
            in
            Option.iter
              (fun got ->
                incr answered;
                if not (String.equal want got) then
                  Alcotest.failf
                    "seed %d step %d: program of policy gen %d: %s %s %c: \
                     interpreter=%s program=%s"
                    seed step gen
                    (Principal.to_string identity)
                    what (Right.to_char right) want got)
              got
          in
          List.iter
            (fun identity ->
              let principal = Principal.to_string identity in
              List.iter
                (fun right ->
                  let right_bit = Policy_compile.right_bit right in
                  List.iter
                    (fun path ->
                      agree path identity right
                        (Policy.eval_object p ~principal ~path ~right_bit)
                        (verdict uncached identity path right))
                    probes;
                  List.iter
                    (fun dir ->
                      agree (dir ^ " (in-dir)") identity right
                        (Policy.eval_in_dir p ~principal ~dir ~right_bit)
                        (dir_verdict uncached identity dir right))
                    in_dirs)
                rights)
            identities
      done;
      if !answered = 0 then
        Alcotest.failf "seed %d: no program outlived a mutation" seed)
    seeds

(* Plain-file churn leaves the program resident: creates, unlinks and
   renames of regular files never make it stale or recompile it, and
   checks keep hitting it. *)
let plain_churn_does_not_recompile () =
  let k, bytecode, _, _ = setup () in
  let fs = Kernel.fs k in
  ok "acl b"
    (Enforce.write_acl bytecode ~dir:"/w/b"
       (Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rl") ]));
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  let check path =
    ignore (Enforce.check_object bytecode ~identity:fred ~path Right.Read)
  in
  check "/w/a/f0";
  let recompiles = value "kernel.bytecode.recompile"
  and stale = value "kernel.bytecode.stale"
  and hits = value "kernel.bytecode.hit" in
  for i = 1 to 20 do
    let f = Printf.sprintf "/w/a/n%d" i and g = Printf.sprintf "/w/b/m%d" i in
    ok "create" (Fs.write_file fs ~uid:0 f "x");
    check f;
    ok "rename" (Fs.rename fs ~uid:0 ~src:f ~dst:g);
    check g;
    ok "unlink" (Fs.unlink fs ~uid:0 g);
    check g
  done;
  Alcotest.(check int) "no recompile" recompiles (value "kernel.bytecode.recompile");
  Alcotest.(check int) "never stale" stale (value "kernel.bytecode.stale");
  Alcotest.(check int) "every check hit" (hits + 60) (value "kernel.bytecode.hit")

(* Chain revocation mid-storm: an admitted delegation chain must die on
   every engine the moment its root is revoked, regardless of which
   tier serves the plain ACL verdicts around it. *)
let revocation_mid_storm () =
  let seed = List.hd seeds in
  let st = Random.State.make [| seed |] in
  let k, bytecode, cached, uncached = setup () in
  let ca = Ca.create ~name:"Storm CA" in
  let rev = Delegation.Revocations.create () in
  let holder = "globus:/O=UnivNowhere/CN=Jane" in
  let chain =
    [ Delegation.mint ca ~delegator:"globus:/O=UnivNowhere/CN=Fred"
        ~delegatee:holder
        ~rights:(Rights.of_string_exn "rl")
        ~prefix:"/w" ~now:0L ~ttl_ns:1_000_000_000L ~hops:4 () ]
  in
  let admit e =
    Enforce.admit_chain e ~trusted:[ ca ] ~revocations:rev
      ~now:(Kernel.now k) ~holder chain
  in
  let engines = [ bytecode; cached; uncached ] in
  List.iter
    (fun e ->
      match admit e with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "pre-storm admit: %s" (Delegation.failure_name f))
    engines;
  for step = 0 to 19 do
    mutate st k bytecode;
    compare_engines (bytecode, cached, uncached) ~seed ~step
  done;
  ignore (Delegation.Revocations.revoke rev "globus:/O=UnivNowhere/CN=Fred");
  List.iter
    (fun e ->
      match admit e with
      | Ok _ -> Alcotest.fail "revoked chain admitted"
      | Error _ -> ())
    engines;
  for step = 20 to 39 do
    mutate st k bytecode;
    compare_engines (bytecode, cached, uncached) ~seed ~step
  done

(* Fail closed: a tampered program must be rejected by the verifier and
   never installed — and every verdict keeps coming, byte-identical,
   from the interpreter. *)
let verifier_rejects_fail_closed () =
  let k, bytecode, cached, uncached = setup () in
  ignore cached;
  (match Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read with
   | Ok () -> ()
   | Error e -> Alcotest.failf "healthy check: %s" (Errno.to_string e));
  (match Enforce.bytecode_program bytecode with
   | Some _ -> ()
   | None -> Alcotest.fail "healthy engine holds no program");
  (* Corrupt every fresh compile into a structurally invalid program:
     an oversized code segment the bounds verifier must reject. *)
  Enforce.set_bytecode_tamper bytecode
    (Some
       (fun p ->
         { p with
           Policy.p_code =
             Array.make (Policy.max_code + Policy.instr_width) 0 }));
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  let rejects0 = value "kernel.bytecode.reject" in
  List.iter
    (fun path ->
      List.iter
        (fun identity ->
          List.iter
            (fun right ->
              let want = verdict uncached identity path right in
              let got = verdict bytecode identity path right in
              if not (String.equal want got) then
                Alcotest.failf "fail-closed: %s %s %c: uncached=%s got=%s"
                  (Principal.to_string identity)
                  path (Right.to_char right) want got)
            rights)
        identities)
    probes;
  if value "kernel.bytecode.reject" <= rejects0 then
    Alcotest.fail "verifier never rejected the tampered program";
  (match Enforce.bytecode_program bytecode with
   | None -> ()
   | Some _ -> Alcotest.fail "tampered program was installed");
  (match Kernel.policy k with
   | None -> ()
   | Some _ -> Alcotest.fail "tampered program reached the kernel slot");
  (* Clearing the tamper hook recovers on the next check. *)
  Enforce.set_bytecode_tamper bytecode None;
  (match Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read with
   | Ok () -> ()
   | Error e -> Alcotest.failf "recovered check: %s" (Errno.to_string e));
  (match Enforce.bytecode_program bytecode with
   | Some _ -> ()
   | None -> Alcotest.fail "engine did not recover a program")

(* The perf contract: a warm bytecode hit makes zero delegated syscalls
   and charges less than one generation check. *)
let warm_hit_is_cheap () =
  let k, bytecode, _, _ = setup () in
  ignore (Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read);
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  let d0 = (Kernel.stats k).Kernel.delegated in
  let hits0 = value "kernel.bytecode.hit" in
  let t0 = Kernel.now k in
  (match Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read with
   | Ok () -> ()
   | Error e -> Alcotest.failf "warm check: %s" (Errno.to_string e));
  let elapsed = Int64.sub (Kernel.now k) t0 in
  Alcotest.(check int)
    "zero delegated syscalls on the warm hit" 0
    ((Kernel.stats k).Kernel.delegated - d0);
  Alcotest.(check int) "bytecode hit" (hits0 + 1) (value "kernel.bytecode.hit");
  let cost = Kernel.cost k in
  if Int64.compare elapsed cost.Idbox_kernel.Cost.gen_check_ns >= 0 then
    Alcotest.failf "warm bytecode check cost %Ldns, not below one gen check"
      elapsed

let suite =
  [
    Alcotest.test_case "bytecode = interpreter under mutation storm" `Quick
      equivalence_under_storm;
    Alcotest.test_case "chain revocation mid-storm" `Quick revocation_mid_storm;
    Alcotest.test_case "program sound while policy generation stands" `Quick
      stale_program_sound_at_same_policy_generation;
    Alcotest.test_case "plain-file churn does not recompile" `Quick
      plain_churn_does_not_recompile;
    Alcotest.test_case "verifier rejection fails closed" `Quick
      verifier_rejects_fail_closed;
    Alcotest.test_case "warm hit: zero delegated, below gen-check" `Quick
      warm_hit_is_cheap;
  ]
