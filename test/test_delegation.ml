(* Certified delegation chains: minting, attenuation algebra, every
   structural failure mode, the wire roundtrip, the generation-validated
   chain memo in Enforce, and the tentpole scenario end to end — node B
   submits delegated work to node C through the Router under Alice's
   attenuated identity, with every hop in the audit ring, and a
   revocation kills the chain cluster-wide. *)

module Kernel = Idbox_kernel.Kernel
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Program = Idbox_kernel.Program
module Libc = Idbox_kernel.Libc
module Ca = Idbox_auth.Ca
module Delegation = Idbox_auth.Delegation
module Enforce = Idbox.Enforce
module Rights_table = Idbox.Rights_table
module Audit = Idbox.Audit
module Server = Idbox_chirp.Server
module Router = Idbox_cluster.Router
module World = Idbox_cluster.World
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

(* A row of one question: [right] on the object at the first path. *)
let object_row right =
  {
    Rights_table.guard = false;
    reserve = false;
    questions = [ { Rights_table.arg = 0; target = Rights_table.Object; right; or_write = false } ];
    or_else = [];
  }

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let okm ctx = function Ok v -> v | Error m -> Alcotest.failf "%s: %s" ctx m

let rights = Rights.of_string_exn

let alice = "globus:/O=Grid/CN=Alice"
let bob = "globus:/O=Grid/CN=Bob"
let carol = "globus:/O=Grid/CN=Carol"

let mint ca ?(now = 0L) ?(ttl_ns = 1_000L) ?(hops = 4) ?epoch ?(prefix = "/")
    ~delegator ~delegatee r =
  Delegation.mint ca ~delegator ~delegatee ~rights:(rights r) ~prefix ~now
    ~ttl_ns ~hops ?epoch ()

let validate ?(trusted_name = "Grid CA") ~trusted ?revocations ?(now = 0L)
    ~holder chain =
  ignore trusted_name;
  let revocations =
    match revocations with Some r -> r | None -> Delegation.Revocations.create ()
  in
  Delegation.validate ~trusted ~revocations ~now ~holder chain

let check_failure ctx want = function
  | Ok _ -> Alcotest.failf "%s: chain admitted" ctx
  | Error f ->
    Alcotest.(check string) ctx
      (Delegation.failure_name want)
      (Delegation.failure_name f)

(* ---- attenuation algebra -------------------------------------------- *)

let single_hop () =
  let ca = Ca.create ~name:"Grid CA" in
  let tok = mint ca ~prefix:"/data" ~delegator:alice ~delegatee:bob "rwl" in
  let s =
    match validate ~trusted:[ ca ] ~holder:bob [ tok ] with
    | Ok s -> s
    | Error f -> Alcotest.failf "single hop: %s" (Delegation.failure_name f)
  in
  Alcotest.(check string) "root is the delegator" alice s.Delegation.sum_root;
  Alcotest.(check string) "holder" bob s.Delegation.sum_holder;
  Alcotest.(check bool) "grant is the hop's mask" true
    (Rights.equal (rights "rwl") s.Delegation.sum_grant);
  Alcotest.(check string) "prefix" "/data" s.Delegation.sum_prefix;
  Alcotest.(check int) "hops" 1 s.Delegation.sum_hops

let two_hop_attenuation () =
  let ca = Ca.create ~name:"Grid CA" in
  let h1 = mint ca ~prefix:"/data" ~delegator:alice ~delegatee:bob "rwl" in
  let h2 =
    mint ca ~prefix:"/data/sub" ~ttl_ns:500L ~delegator:bob ~delegatee:carol
      "rx"
  in
  let s =
    match validate ~trusted:[ ca ] ~holder:carol [ h1; h2 ] with
    | Ok s -> s
    | Error f -> Alcotest.failf "two hop: %s" (Delegation.failure_name f)
  in
  Alcotest.(check string) "root stays the first delegator" alice
    s.Delegation.sum_root;
  (* rwl ∩ rx = r: every hop attenuates, none can widen. *)
  Alcotest.(check bool) "grant is the intersection" true
    (Rights.equal (rights "r") s.Delegation.sum_grant);
  Alcotest.(check string) "narrowest prefix wins" "/data/sub"
    s.Delegation.sum_prefix;
  Alcotest.(check bool) "earliest expiry wins" true
    (Int64.equal 500L s.Delegation.sum_expires)

(* ---- every refusal, fail-closed ------------------------------------- *)

let refusals () =
  let ca = Ca.create ~name:"Grid CA" in
  let other = Ca.create ~name:"Rogue CA" in
  let h1 = mint ca ~prefix:"/data" ~delegator:alice ~delegatee:bob "rwl" in
  let h2 = mint ca ~prefix:"/data" ~delegator:bob ~delegatee:carol "rl" in
  check_failure "empty" Delegation.F_empty
    (validate ~trusted:[ ca ] ~holder:bob []);
  (* Expiry is inclusive at the boundary instant and dead one tick
     after — the Expiry rule shared with Cas and Kerberos. *)
  (match validate ~trusted:[ ca ] ~now:1_000L ~holder:bob [ h1 ] with
   | Ok _ -> ()
   | Error f ->
     Alcotest.failf "valid at now = expiry: %s" (Delegation.failure_name f));
  check_failure "expired" Delegation.F_expired
    (validate ~trusted:[ ca ] ~now:1_001L ~holder:bob [ h1 ]);
  check_failure "forged stamp" Delegation.F_forged
    (validate ~trusted:[ ca ] ~holder:bob
       [ { h1 with Delegation.dg_rights = rights "rwlaxd" } ]);
  check_failure "untrusted issuer" Delegation.F_forged
    (validate ~trusted:[ other ] ~holder:bob [ h1 ]);
  check_failure "broken link" Delegation.F_broken
    (validate ~trusted:[ ca ] ~holder:carol
       [ h1; mint ca ~prefix:"/data" ~delegator:carol ~delegatee:carol "r" ]);
  check_failure "holder mismatch" Delegation.F_broken
    (validate ~trusted:[ ca ] ~holder:alice [ h1 ]);
  check_failure "cycle" Delegation.F_cycle
    (validate ~trusted:[ ca ] ~holder:alice
       [ h1; mint ca ~prefix:"/data" ~delegator:bob ~delegatee:alice "r" ]);
  check_failure "over hop" Delegation.F_over_hop
    (validate ~trusted:[ ca ] ~holder:carol
       [ mint ca ~prefix:"/data" ~hops:1 ~delegator:alice ~delegatee:bob "rwl";
         h2 ]);
  check_failure "widened scope" Delegation.F_widened
    (validate ~trusted:[ ca ] ~holder:carol
       [ h1; mint ca ~prefix:"/other" ~delegator:bob ~delegatee:carol "r" ]);
  let rev = Delegation.Revocations.create () in
  Alcotest.(check int) "first revocation epoch" 1
    (Delegation.Revocations.revoke rev alice);
  check_failure "revoked" Delegation.F_revoked
    (validate ~trusted:[ ca ] ~revocations:rev ~holder:bob [ h1 ]);
  (* Re-minting under the current epoch resurrects the delegator. *)
  (match
     validate ~trusted:[ ca ] ~revocations:rev ~holder:bob
       [ mint ca ~prefix:"/data" ~epoch:1 ~delegator:alice ~delegatee:bob "rwl" ]
   with
   | Ok _ -> ()
   | Error f ->
     Alcotest.failf "re-mint under current epoch: %s"
       (Delegation.failure_name f))

let revocations_merge_monotone () =
  let a = Delegation.Revocations.create () in
  let b = Delegation.Revocations.create () in
  ignore (Delegation.Revocations.revoke a alice);
  ignore (Delegation.Revocations.revoke a alice);
  ignore (Delegation.Revocations.revoke b bob);
  Alcotest.(check bool) "merge grows" true
    (Delegation.Revocations.merge b (Delegation.Revocations.entries a));
  Alcotest.(check bool) "re-merge is a no-op" false
    (Delegation.Revocations.merge b (Delegation.Revocations.entries a));
  Alcotest.(check int) "pointwise max" 2 (Delegation.Revocations.epoch b alice);
  Alcotest.(check int) "own entries survive" 1
    (Delegation.Revocations.epoch b bob);
  (* Merging backwards never lowers an epoch. *)
  Alcotest.(check bool) "stale merge is a no-op" false
    (Delegation.Revocations.merge b [ (alice, 1) ]);
  Alcotest.(check int) "epoch unchanged" 2
    (Delegation.Revocations.epoch b alice)

let wire_roundtrip () =
  let ca = Ca.create ~name:"Grid CA" in
  let tok =
    mint ca ~prefix:"/data/sub" ~now:7L ~ttl_ns:400L ~hops:2 ~epoch:3
      ~delegator:alice ~delegatee:bob "rwl"
  in
  (match Delegation.token_of_fields (Delegation.token_fields tok) with
   | Error m -> Alcotest.failf "roundtrip: %s" m
   | Ok back ->
     Alcotest.(check bool) "token survives the wire" true (tok = back));
  (match Delegation.token_of_fields [ "garbage" ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage decoded")

(* ---- the Enforce chain memo ----------------------------------------- *)

let counter k name = Metrics.counter_value_of (Kernel.metrics k) name

let enforce_memo () =
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  let e = Enforce.create k ~supervisor:sup () in
  let ca = Ca.create ~name:"Grid CA" in
  let rev = Delegation.Revocations.create () in
  let chain = [ mint ca ~prefix:"/data" ~delegator:alice ~delegatee:bob "rwl" ] in
  let admit ~now =
    Enforce.admit_chain e ~trusted:[ ca ] ~revocations:rev ~now ~holder:bob
      chain
  in
  (match admit ~now:0L with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "cold admit: %s" (Delegation.failure_name f));
  Alcotest.(check int) "cold validation is a miss" 1
    (counter k "enforce.chain.miss");
  (match admit ~now:1L with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "warm admit: %s" (Delegation.failure_name f));
  Alcotest.(check int) "second admit hits the memo" 1
    (counter k "enforce.chain.hit");
  (* The memo never outlives the summary's expiry... *)
  check_failure "memo expires with the chain" Delegation.F_expired
    (admit ~now:2_000L);
  (* ...and a revocation-generation bump forces revalidation, which now
     rejects — rejections are never cached, so this repeats. *)
  ignore (Delegation.Revocations.revoke rev alice);
  check_failure "revocation invalidates the memo" Delegation.F_revoked
    (admit ~now:1L);
  check_failure "rejections are not cached" Delegation.F_revoked
    (admit ~now:1L);
  Alcotest.(check int) "both revoked admits revalidated" 3
    (counter k "enforce.chain.miss");
  Alcotest.(check int) "reject counter split by reason" 2
    (counter k "auth.delegation.reject.revoked")

let delegated_verdict_attenuates () =
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  let e = Enforce.create k ~supervisor:sup () in
  ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 "/data/sub");
  ok "acl"
    (Enforce.write_acl e ~dir:"/data"
       (Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=Grid/*" (rights "rwl") ]));
  let id = Principal.of_string alice in
  let check ~grant ~prefix ~path right =
    Rights_table.authorize e
      {
        Rights_table.identity = id;
        limit = Some { Rights_table.grant = rights grant; scope = prefix };
      }
      (object_row right)
      [ path ]
  in
  ok "granted right inside scope passes to the ACL"
    (check ~grant:"rl" ~prefix:"/data" ~path:"/data/sub" Right.Read);
  (match check ~grant:"l" ~prefix:"/data" ~path:"/data/sub" Right.Read with
   | Error Errno.EACCES -> ()
   | _ -> Alcotest.fail "right outside the grant admitted");
  (match check ~grant:"rl" ~prefix:"/data/sub" ~path:"/data" Right.Read with
   | Error Errno.EACCES -> ()
   | _ -> Alcotest.fail "path outside the scope admitted");
  (* The delegator's own ACL verdict still binds: Write is in the grant
     but not in Alice's ACL entry for Admin-level rights. *)
  (match check ~grant:"a" ~prefix:"/data" ~path:"/data/sub" Right.Admin with
   | Error Errno.EACCES -> ()
   | _ -> Alcotest.fail "delegation exceeded the delegator's own rights")

(* ---- the tentpole: A -> B -> C across a 3-node world ---------------- *)

let three_node_world () =
  let w = World.create () in
  List.iter
    (fun h -> okm "add_node" (World.add_node w ~host:h))
    [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ];
  World.settle w;
  w

let connect w cn =
  match World.connect w ~credentials:[ World.issue w cn ] with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let delegated_exec_across_nodes () =
  Kernel.with_fresh_programs (fun () ->
      let w = three_node_world () in
      Program.register "sim" (fun _ ->
          match
            Libc.write_file "out.dat" ~contents:("by " ^ Libc.get_user_name ())
          with
          | Ok () -> 0
          | Error _ -> 1);
      let ra = connect w "Alice" in
      ok "mkdir" (Router.mkdir ra "/work");
      ok "stage" (Router.put ra ~path:"/work/sim.exe" ~data:(Program.marker "sim"));
      (* Alice delegates to Bob, Bob extends to Carol: exec+read+list
         under /work only. *)
      let chain =
        [
          World.delegate w ~delegator:"Alice" ~delegatee:"Bob"
            ~rights:(rights "rxl") ~prefix:"/work" ();
          World.delegate w ~delegator:"Bob" ~delegatee:"Carol"
            ~rights:(rights "rx") ~prefix:"/work" ();
        ]
      in
      let rc = connect w "Carol" in
      Alcotest.(check int) "delegated exec exits clean" 0
        (ok "exec_delegated"
           (Router.exec_delegated rc ~chain ~path:"/work/sim.exe"
              ~args:[ "sim.exe" ] ()));
      (* The program ran under the ROOT delegator's identity: consistent
         global identity survives two delegation hops. *)
      Alcotest.(check string) "boxed output names Alice"
        ("by " ^ alice)
        (ok "out" (Router.get ra "/work/out.dat"));
      (* Carol's own authority was never widened: outside the chain she
         still has no rights over Alice's directory. *)
      (match Router.get rc "/work/out.dat" with
       | Error Errno.EACCES -> ()
       | Ok _ -> Alcotest.fail "delegatee read without the chain"
       | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
      (* Every hop is in the serving primary's audit ring. *)
      (match Router.node_for rc "/work" with
       | None -> Alcotest.fail "no primary for /work"
       | Some primary ->
         let audit = Server.audit (World.server w primary) in
         let hops =
           List.filter
             (fun ev -> String.equal ev.Audit.ev_op "delegate")
             (Audit.events audit)
         in
         (* One record per hop per validated chain presentation (the
            second presentation hit the Enforce memo on the same server,
            still audited). *)
         Alcotest.(check bool) "per-hop audit records" true
           (List.length hops >= 2);
         Alcotest.(check bool) "first hop names Alice -> Bob" true
           (List.exists
              (fun ev ->
                String.equal ev.Audit.ev_identity alice
                && ev.Audit.ev_path2 = Some bob)
              hops);
         Alcotest.(check bool) "second hop names Bob -> Carol" true
           (List.exists
              (fun ev ->
                String.equal ev.Audit.ev_identity bob
                && ev.Audit.ev_path2 = Some carol)
              hops);
         Alcotest.(check bool) "inner verdict audited" true
           (List.exists
              (fun ev ->
                String.equal ev.Audit.ev_op "delegated.exec"
                && String.equal ev.Audit.ev_identity alice
                && ev.Audit.ev_verdict = Audit.Allowed)
              (Audit.events audit)));
      Alcotest.(check bool) "delegated execs counted" true
        (counter (World.kernel w) "chirp.delegated_exec" > 0))

let revocation_is_cluster_wide () =
  Kernel.with_fresh_programs (fun () ->
      let w = three_node_world () in
      Program.register "sim" (fun _ -> 0);
      let ra = connect w "Alice" in
      ok "mkdir" (Router.mkdir ra "/work");
      ok "stage" (Router.put ra ~path:"/work/sim.exe" ~data:(Program.marker "sim"));
      let chain =
        [
          World.delegate w ~delegator:"Alice" ~delegatee:"Carol"
            ~rights:(rights "rxl") ~prefix:"/work" ();
        ]
      in
      let rc = connect w "Carol" in
      Alcotest.(check int) "chain works before revocation" 0
        (ok "exec_delegated"
           (Router.exec_delegated rc ~chain ~path:"/work/sim.exe"
              ~args:[ "sim.exe" ] ()));
      (* Alice revokes herself; the epoch bump is root-key state and
         fans to every member. *)
      Alcotest.(check int) "revocation epoch" 1 (ok "revoke" (Router.revoke ra alice));
      List.iter
        (fun name ->
          Alcotest.(check int)
            (name ^ " heard the revocation")
            1
            (Delegation.Revocations.epoch
               (Server.revocations (World.server w name))
               alice))
        (World.members w);
      (match
         Router.exec_delegated rc ~chain ~path:"/work/sim.exe"
           ~args:[ "sim.exe" ] ()
       with
       | Error Errno.EACCES -> ()
       | Ok _ -> Alcotest.fail "revoked chain executed"
       | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
      Alcotest.(check int) "epoch readable through the router" 1
        (ok "epoch" (Router.delegation_epoch rc alice));
      (* A fresh grant under the current epoch works again. *)
      let chain2 =
        [
          World.delegate w ~delegator:"Alice" ~delegatee:"Carol"
            ~rights:(rights "rxl") ~prefix:"/work" ~epoch:1 ();
        ]
      in
      Alcotest.(check int) "re-minted chain executes" 0
        (ok "exec_delegated"
           (Router.exec_delegated rc ~chain:chain2 ~path:"/work/sim.exe"
              ~args:[ "sim.exe" ] ())))

let suite =
  [
    Alcotest.test_case "single hop attenuates to its mask" `Quick single_hop;
    Alcotest.test_case "two hops intersect rights, narrow scope" `Quick
      two_hop_attenuation;
    Alcotest.test_case "every structural defect fails closed" `Quick refusals;
    Alcotest.test_case "revocation epochs merge by pointwise max" `Quick
      revocations_merge_monotone;
    Alcotest.test_case "token survives the wire" `Quick wire_roundtrip;
    Alcotest.test_case "chain memo: hit, expire, revoke" `Quick enforce_memo;
    Alcotest.test_case "delegated verdicts never widen" `Quick
      delegated_verdict_attenuates;
    Alcotest.test_case "A->B->C delegated exec across 3 nodes" `Quick
      delegated_exec_across_nodes;
    Alcotest.test_case "revocation is cluster-wide" `Quick
      revocation_is_cluster_wide;
  ]
