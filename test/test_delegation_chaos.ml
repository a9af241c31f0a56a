(* Delegation under chaos: every hostile chain shape — expired, forged,
   cyclic, over-length, revoked mid-flight — is refused fail-closed
   through a lossy network, and a revocation racing a partition heals
   by epoch gossip.  Every scenario is seeded ([IDBOX_CHAOS_SEED]) and
   replays byte-identically. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Delegation = Idbox_auth.Delegation
module Protocol = Idbox_chirp.Protocol
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Audit = Idbox.Audit
module Repair = Idbox_cluster.Repair
module Router = Idbox_cluster.Router
module World = Idbox_cluster.World
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let okm ctx = function Ok v -> v | Error m -> Alcotest.failf "%s: %s" ctx m

let seed () =
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> (try Int64.of_string s with _ -> 2005L)
  | None -> 2005L

let alice = "globus:/O=Grid/CN=Alice"
let bob = "globus:/O=Grid/CN=Bob"
let carol = "globus:/O=Grid/CN=Carol"

let rights = Rights.of_string_exn

(* ---- every hostile chain, through a lossy wire ---------------------- *)

(* One server, 10% drops: the legitimate chain works through retries,
   and each of the five hostile shapes dies with EACCES and its own
   reject counter.  Run twice under the same seed, the whole transcript
   — metrics registry and audit trail — is byte-identical. *)
let hostile_chains_run () =
  let clock = Clock.create () in
  let kernel = Kernel.create ~clock () in
  let net =
    Network.create ~clock ~metrics:(Kernel.metrics kernel)
      ~trace:(Kernel.trace_ring kernel) ()
  in
  Network.set_fault_plan net
    (Fault.plan ~seed:(seed ())
       ~default_profile:(Fault.profile ~drop:0.1 ())
       ());
  let owner =
    match Account.add (Kernel.accounts kernel) "chirpuser" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"Grid CA" in
  let server =
    ok "server"
      (Server.create ~kernel ~net ~addr:"alpha.grid.edu:9094"
         ~owner_uid:owner.Account.uid ~export:"/tmp/chirp_chaos"
         ~acceptor:(Negotiate.acceptor ~trusted_cas:[ ca ] ())
         ~root_acl:
           (Acl.of_entries
              [
                Entry.make ~pattern:"globus:/O=Grid/*"
                  ~reserve:(rights "rwlaxd") (rights "rwlx");
              ])
         ())
  in
  let connect cn =
    okm ("connect " ^ cn)
      (Client.connect ~src:(String.lowercase_ascii cn) net
         ~addr:"alpha.grid.edu:9094"
         ~credentials:
           [ Credential.Gsi (Ca.issue ca (Subject.of_string_exn ("/O=Grid/CN=" ^ cn))) ])
  in
  let ca_client = connect "Alice" in
  let carol_client = connect "Carol" in
  ok "put" (Client.put ca_client ~path:"/f" ~data:"payload");
  let mint ?(ttl_ns = 60_000_000_000L) ?(hops = 4) ?epoch ~delegator ~delegatee
      r =
    Delegation.mint ca ~delegator ~delegatee ~rights:(rights r) ~prefix:"/"
      ~now:(Clock.now clock) ~ttl_ns ~hops ?epoch ()
  in
  let refused ctx c chain =
    match Client.get_delegated c ~chain "/f" with
    | Error Errno.EACCES -> ()
    | Ok _ -> Alcotest.failf "%s: hostile chain admitted" ctx
    | Error e -> Alcotest.failf "%s: unexpected %s" ctx (Errno.to_string e)
  in
  (* The control: a legitimate chain reads through the drops. *)
  let good = [ mint ~delegator:alice ~delegatee:carol "rl" ] in
  Alcotest.(check string) "legitimate chain reads" "payload"
    (ok "delegated get" (Client.get_delegated carol_client ~chain:good "/f"));
  refused "expired" carol_client
    [ mint ~ttl_ns:(-1L) ~delegator:alice ~delegatee:carol "rl" ];
  refused "forged" carol_client
    [
      { (mint ~delegator:alice ~delegatee:carol "r") with
        Delegation.dg_rights = rights "rwlaxd" };
    ];
  refused "cyclic" ca_client
    [ mint ~delegator:alice ~delegatee:bob "rl";
      mint ~delegator:bob ~delegatee:alice "rl" ];
  refused "over-length" carol_client
    [ mint ~hops:1 ~delegator:alice ~delegatee:bob "rl";
      mint ~delegator:bob ~delegatee:carol "rl" ];
  (* Revoked mid-flight: the chain was alive moments ago. *)
  Alcotest.(check int) "self-revocation" 1
    (ok "revoke" (Client.revoke ca_client alice));
  refused "revoked mid-flight" carol_client good;
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        ("reject counter " ^ reason)
        true
        (Metrics.counter_value_of (Kernel.metrics kernel)
           ("auth.delegation.reject." ^ reason)
         > 0))
    [ "expired"; "forged"; "cycle"; "over_hop"; "revoked" ];
  (* The refusals are in the forensic trail, denied as the holder. *)
  Alcotest.(check bool) "denials audited" true
    (List.exists
       (fun ev ->
         String.equal ev.Audit.ev_op "delegated"
         && ev.Audit.ev_verdict <> Audit.Allowed)
       (Audit.events (Server.audit server)));
  ( Metrics.to_json (Kernel.metrics kernel),
    Audit.to_json (Server.audit server) )

let hostile_chains_fail_closed () =
  let m1, a1 = hostile_chains_run () in
  let m2, a2 = hostile_chains_run () in
  Alcotest.(check string) "metrics byte-identical across reruns" m1 m2;
  Alcotest.(check string) "audit byte-identical across reruns" a1 a2

(* ---- revocation racing a partition ---------------------------------- *)

(* Three nodes; the revocation fan-out races a partition that cuts one
   member off.  The cut member keeps honouring the stale chain — the
   documented inconsistency window — until the heal, when one epoch
   gossip round closes it.  Fail-closed: the race can only ever
   under-revoke temporarily, never widen a grant. *)
let revocation_race_run () =
  let w = World.create () in
  List.iter
    (fun h -> okm "add_node" (World.add_node w ~host:h))
    [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ];
  World.settle w;
  let ra =
    match World.connect w ~credentials:[ World.issue w "Alice" ] with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  (* The victim is any member that is NOT the root-key primary, so the
     revocation always lands somewhere and the victim always misses it. *)
  let root_primary = Option.get (Router.node_for ra "/") in
  let victim =
    List.find
      (fun n -> not (String.equal n root_primary))
      (World.members w)
  in
  let victim_addr = victim ^ ".grid.edu:9094" in
  Network.set_fault_plan (World.net w)
    (Fault.plan ~seed:(seed ())
       ~partitions:
         (List.filter_map
            (fun peer ->
              if String.equal peer victim then None
              else
                Some
                  (Fault.window ~from_ns:10_000_000_000L
                     ~until_ns:30_000_000_000L
                     ~between:(victim ^ ".grid.edu", peer ^ ".grid.edu")))
            (World.members w))
       ());
  let chain =
    [ World.delegate w ~delegator:"Alice" ~delegatee:"Carol"
        ~rights:(rights "rl") ~prefix:"/" () ]
  in
  let cg =
    okm "carol connect"
      (Client.connect ~src:"carol" (World.net w) ~addr:victim_addr
         ~credentials:[ World.issue w "Carol" ])
  in
  (* A delegated probe against the victim, bypassing the router: does
     this member still honour the chain? *)
  let probe () =
    let payload =
      Client.prepare cg (Protocol.Delegated { chain; op = Protocol.Whoami })
    in
    match
      Network.call (World.net w) ~src:"carol" ~timeout_ns:1_000_000_000L
        ~addr:victim_addr payload
    with
    | Error e -> Error e
    | Ok reply ->
      (match Client.interpret reply with
       | Ok (Protocol.R_str who) -> Ok who
       | Ok _ -> Error Errno.EINVAL
       | Error e -> Error e)
  in
  Alcotest.(check string) "chain honoured before the race" alice
    (ok "probe" (probe ()));
  let epoch_on name =
    Delegation.Revocations.epoch
      (Server.revocations (World.server w name))
      alice
  in
  (* Step into the partition window and revoke: the fan-out reaches
     everyone except the victim. *)
  Clock.advance (World.clock w) 15_000_000_000L;
  Alcotest.(check int) "revocation accepted" 1 (ok "revoke" (Router.revoke ra alice));
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " epoch during the partition")
        (if String.equal name victim then 0 else 1)
        (epoch_on name))
    (World.members w);
  (* The inconsistency window, made visible: the cut member still
     honours the revoked chain. *)
  Alcotest.(check string) "victim honours the stale chain" alice
    (ok "stale probe" (probe ()));
  (* Heal, then one gossip round from the victim pulls the epoch. *)
  Clock.advance (World.clock w) 20_000_000_000L;
  World.tick w;
  Repair.gossip_epochs (World.repair w victim);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " epoch after the heal") 1 (epoch_on name))
    (World.members w);
  (match probe () with
   | Error Errno.EACCES -> ()
   | Ok _ -> Alcotest.fail "victim honoured a revoked chain after the heal"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  Alcotest.(check bool) "gossip counted" true
    (Metrics.counter_value_of
       (Network.metrics (World.net w))
       "cluster.revocation.gossip"
     > 0);
  Alcotest.(check bool) "merge counted" true
    (Metrics.counter_value_of
       (Kernel.metrics (World.kernel w))
       "chirp.revocation.merge"
     > 0);
  Printf.sprintf "victim=%s primary=%s %s|%s" victim root_primary
    (Metrics.to_json (Kernel.metrics (World.kernel w)))
    (Metrics.to_json (Network.metrics (World.net w)))

let revocation_races_partition () =
  let t1 = revocation_race_run () in
  let t2 = revocation_race_run () in
  Alcotest.(check string) "race transcript byte-identical" t1 t2

let suite =
  [
    Alcotest.test_case "hostile chains fail closed under loss" `Quick
      hostile_chains_fail_closed;
    Alcotest.test_case "revocation races a partition, gossip heals" `Quick
      revocation_races_partition;
  ]
