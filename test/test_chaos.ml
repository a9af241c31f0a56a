(* Chaos suite: the whole Chirp stack under a seeded fault plan.  The
   faults are deterministic (splitmix64 stream + simulated clock), so
   every test here replays exactly — including the two-run
   byte-identical determinism check at the bottom. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Program = Idbox_kernel.Program
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Trace = Idbox_kernel.Trace
module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Wire = Idbox_chirp.Wire
module Protocol = Idbox_chirp.Protocol
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Catalog = Idbox_chirp.Catalog
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

type world = {
  net : Network.t;
  server : Server.t;
  ca : Ca.t;
  kernel : Kernel.t;
  clock : Clock.t;
}

let server_addr = "alpha.grid.edu:9094"

(* Like the chirp suite's world, but the network shares the kernel's
   metrics registry and trace ring so fault counters and spans land in
   one deterministic export. *)
let make_world ?max_sessions ?session_idle_ns ?max_parked ?flush_interval_ns
    () =
  let clock = Clock.create () in
  let kernel = Kernel.create ~clock () in
  let net =
    Network.create ~clock ~metrics:(Kernel.metrics kernel)
      ~trace:(Kernel.trace_ring kernel) ()
  in
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
      ~host_ok:(fun h ->
        Idbox_identity.Wildcard.literal_matches "*.nowhere.edu" h)
      ()
  in
  let server =
    match
      Server.create ~kernel ~net ~addr:server_addr ~owner_uid:owner.Account.uid
        ~export:"/tmp/export" ~acceptor ~root_acl ?max_sessions
        ?session_idle_ns ?max_parked ?flush_interval_ns ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  { net; server; ca; kernel; clock }

(* A policy generous enough to ride out a 10% drop rate; still bounded. *)
let chaos_policy =
  { Client.default_policy with max_attempts = 8; retry_budget = 500 }

let connect_fred ?(name = "Fred") w =
  let cert = Ca.issue w.ca (Subject.of_string_exn ("/O=UnivNowhere/CN=" ^ name)) in
  match
    Client.connect ~policy:chaos_policy w.net ~addr:server_addr
      ~credentials:[ Credential.Gsi cert ]
  with
  | Ok c -> c
  | Error m -> Alcotest.fail m

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let counter w name = Metrics.counter_value_of (Kernel.metrics w.kernel) name

(* --- the acceptance scenario ----------------------------------------- *)

(* 10% drops everywhere plus a mid-run partition: every workload step
   still completes, and the retry layer is demonstrably doing work. *)
let workload_completes_under_drops () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      Program.register "sim" (fun _ ->
          match Libc.write_file "out.dat" ~contents:("by " ^ Libc.get_user_name ()) with
          | Ok () -> 0
          | Error _ -> 1);
      Network.set_fault_plan w.net
        (Fault.plan ~seed:2005L
           ~default_profile:(Fault.profile ~drop:0.1 ())
           ~partitions:
             [ Fault.window ~from_ns:40_000_000_000L
                 ~until_ns:44_000_000_000L
                 ~between:("client", "alpha.grid.edu") () ]
           ());
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/work");
      ok "put exe" (Client.put c ~path:"/work/sim.exe" ~data:(Program.marker "sim"));
      for i = 1 to 12 do
        let path = Printf.sprintf "/work/d%d" i in
        let data = Printf.sprintf "payload-%d" i in
        ok "put" (Client.put c ~path ~data);
        Alcotest.(check string) path data (ok "get" (Client.get c path))
      done;
      Alcotest.(check int) "exec exit" 0
        (ok "exec" (Client.exec c ~path:"/work/sim.exe" ~args:[ "sim.exe" ] ()));
      Alcotest.(check string) "boxed output" "by globus:/O=UnivNowhere/CN=Fred"
        (ok "get out" (Client.get c "/work/out.dat"));
      (* Step into the partition window: the next put has to wait the
         partition out, one timed-out attempt at a time, then lands. *)
      let into_window = Int64.sub 40_000_000_000L (Clock.now w.clock) in
      if into_window > 0L then Clock.advance w.clock into_window;
      ok "put through partition" (Client.put c ~path:"/work/late" ~data:"late");
      Alcotest.(check string) "late read" "late" (ok "get late" (Client.get c "/work/late"));
      (* The partition window really was crossed... *)
      Alcotest.(check bool) "partition hit" true (counter w "net.partition" > 0);
      (* ...and drops really happened, absorbed by retries. *)
      Alcotest.(check bool) "drops injected" true (counter w "net.drop" > 0);
      Alcotest.(check bool) "retries spent" true (Client.retries c > 0);
      (* Security invariant survives the chaos: the ACL still denies. *)
      (match Client.setacl c ~path:"/" ~entry:"globus:/O=Evil/* rwlaxd" with
       | Error Errno.EACCES -> ()
       | Ok () -> Alcotest.fail "root ACL writable under faults"
       | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e)))

(* Retried non-idempotent operations execute exactly once: every exec
   call lands one execution, however many wire attempts it took. *)
let exec_exactly_once_under_loss () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      let runs = ref 0 in
      Program.register "bump" (fun _ -> incr runs; 0);
      Network.set_fault_plan w.net
        (Fault.plan ~seed:7L ~default_profile:(Fault.profile ~drop:0.25 ()) ());
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/work");
      ok "put" (Client.put c ~path:"/work/bump.exe" ~data:(Program.marker "bump"));
      for _ = 1 to 5 do
        Alcotest.(check int) "exit" 0
          (ok "exec" (Client.exec c ~path:"/work/bump.exe" ~args:[ "bump.exe" ] ()))
      done;
      Alcotest.(check int) "server-side execs" 5 (Server.exec_count w.server);
      Alcotest.(check int) "program runs" 5 !runs;
      Alcotest.(check bool) "retries happened" true (Client.retries c > 0))

(* Direct-dispatch dedup check: the same request ID twice returns the
   stored response without a second execution — including across a
   server restart (the journal is simulated stable storage). *)
let dedup_replays_same_request_id () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      let runs = ref 0 in
      Program.register "bump" (fun _ -> incr runs; 0);
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/work");
      ok "put" (Client.put c ~path:"/work/bump.exe" ~data:(Program.marker "bump"));
      (* Authenticate at the wire level to forge our own retry. *)
      let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
      let auth =
        Server.handle w.server
          (Protocol.encode_request (Protocol.Auth [ Credential.Gsi cert ]))
      in
      let token =
        match Protocol.decode_response auth with
        | Ok (Protocol.R_auth { token; _ }) -> token
        | _ -> Alcotest.fail "auth failed"
      in
      let req =
        Protocol.encode_request
          (Protocol.Op
             { token; req_id = "fred#42";
               op = Protocol.Exec
                      { path = "/work/bump.exe"; args = [ "bump.exe" ];
                        cwd = "/work" } })
      in
      let r1 = Server.handle w.server req in
      (* Same logical request again: replayed from the journal. *)
      let r2 = Server.handle w.server req in
      Alcotest.(check string) "replayed byte-identical" r1 r2;
      (* Across a restart the session dies but the journal survives: a
         re-authenticated retry of the same req_id still must not
         re-execute. *)
      Server.crash w.server;
      Server.restart w.server;
      let auth2 =
        Server.handle w.server
          (Protocol.encode_request (Protocol.Auth [ Credential.Gsi cert ]))
      in
      let token2 =
        match Protocol.decode_response auth2 with
        | Ok (Protocol.R_auth { token; _ }) -> token
        | _ -> Alcotest.fail "reauth failed"
      in
      let req2 =
        Protocol.encode_request
          (Protocol.Op
             { token = token2; req_id = "fred#42";
               op = Protocol.Exec
                      { path = "/work/bump.exe"; args = [ "bump.exe" ];
                        cwd = "/work" } })
      in
      let r3 = Server.handle w.server req2 in
      Alcotest.(check string) "replayed across restart" r1 r3;
      Alcotest.(check int) "ran once" 1 !runs;
      Alcotest.(check int) "dedup hits counted" 2 (counter w "chirp.dedup_hit"))

(* The dedup journal is bounded by age: entries past the window are
   evicted (and counted), so the journal cannot grow without bound —
   at the price that a retry arriving after the window re-executes. *)
let dedup_journal_evicts_by_age () =
  Kernel.with_fresh_programs (fun () ->
      let w = make_world () in
      let c = connect_fred w in
      ok "mkdir" (Client.mkdir c "/work");
      (* Dispatch rid'd operations at the wire level so we control the
         request IDs. *)
      let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
      let token =
        match
          Protocol.decode_response
            (Server.handle w.server
               (Protocol.encode_request (Protocol.Auth [ Credential.Gsi cert ])))
        with
        | Ok (Protocol.R_auth { token; _ }) -> token
        | _ -> Alcotest.fail "auth failed"
      in
      let put rid path =
        ignore
          (Server.handle w.server
             (Protocol.encode_request
                (Protocol.Op
                   { token; req_id = rid; op = Protocol.Put { path; data = "x" } })))
      in
      let journalled = Server.dedup_size w.server in
      for i = 1 to 5 do
        put (Printf.sprintf "fred#%d" i) (Printf.sprintf "/work/e%d" i)
      done;
      Alcotest.(check int) "journal grew" (journalled + 5)
        (Server.dedup_size w.server);
      (* Within the window the same rid replays without re-executing. *)
      put "fred#1" "/work/e1";
      Alcotest.(check int) "replay journalled, not re-added" (journalled + 5)
        (Server.dedup_size w.server);
      Alcotest.(check bool) "replay hit" true (counter w "chirp.dedup_hit" > 0);
      (* Age everything past the 60 s window; the sweep on the next
         dispatch evicts every stale entry. *)
      Clock.advance w.clock 61_000_000_000L;
      put "fred#99" "/work/late";
      Alcotest.(check int) "journal bounded by age" 1 (Server.dedup_size w.server);
      Alcotest.(check int) "evictions counted" (journalled + 5)
        (counter w "chirp.dedup_evictions");
      (* An evicted rid no longer replays: the same id now executes
         fresh — the documented window semantics. *)
      put "fred#1" "/work/fresh";
      Alcotest.(check string) "evicted rid re-executed" "x"
        (ok "get fresh" (Client.get c "/work/fresh")))

(* Eviction from the front of the journal's time order must leave
   exactly what a full scan would: after every request of a seeded mix
   (mutations and reads with request ids, repeats of journalled and
   evicted ids, clock steps around the window) and across a crash and
   restart, the journal is the pre-request journal minus every entry
   older than the window, plus the request's own entry unless it was a
   replay, and [chirp.dedup_evictions] moved by the number dropped. *)
let dedup_eviction_matches_full_scan () =
  let window = 60_000_000_000L in
  let seed =
    match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
    | Some s -> ( try int_of_string s with _ -> 7)
    | None -> 7
  in
  let st = Random.State.make [| seed |] in
  let w = make_world () in
  let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  let auth () =
    match
      Protocol.decode_response
        (Server.handle w.server
           (Protocol.encode_request (Protocol.Auth [ Credential.Gsi cert ])))
    with
    | Ok (Protocol.R_auth { token; _ }) -> token
    | _ -> Alcotest.fail "auth failed"
  in
  let token = ref (auth ()) in
  let send req_id op =
    ignore
      (Server.handle w.server
         (Protocol.encode_request (Protocol.Op { token = !token; req_id; op })))
  in
  send "setup" (Protocol.Mkdir "/work");
  let issued = ref [ "setup" ] in
  for step = 0 to 79 do
    if step = 40 then begin
      Server.crash w.server;
      Server.restart w.server;
      token := auth ()
    end;
    Clock.advance w.clock
      (Int64.of_int (Random.State.int st 25_000) |> Int64.mul 1_000_000L);
    let before = Server.dedup_entries w.server in
    let evictions = counter w "chirp.dedup_evictions" in
    let now = Clock.now w.clock in
    let survivors =
      List.filter (fun (_, at) -> Int64.compare (Int64.sub now at) window <= 0)
        before
    in
    let rid =
      if Random.State.int st 3 = 0 then
        List.nth !issued (Random.State.int st (List.length !issued))
      else Printf.sprintf "fred#%d" step
    in
    if not (List.mem rid !issued) then issued := rid :: !issued;
    let path = Printf.sprintf "/work/f%d" (Random.State.int st 6) in
    send rid
      (match Random.State.int st 3 with
       | 0 -> Protocol.Stat path
       | 1 -> Protocol.Unlink path
       | _ -> Protocol.Put { path; data = rid });
    let expected =
      if List.mem_assoc rid survivors then survivors
      else List.sort compare ((rid, now) :: survivors)
    in
    let show l =
      String.concat " "
        (List.map (fun (r, at) -> Printf.sprintf "%s@%Ld" r at) l)
    in
    let after = Server.dedup_entries w.server in
    if after <> expected then
      Alcotest.failf "seed %d step %d: journal [%s], full scan [%s]" seed step
        (show after) (show expected);
    Alcotest.(check int)
      (Printf.sprintf "seed %d step %d: evictions" seed step)
      (List.length before - List.length survivors)
      (counter w "chirp.dedup_evictions" - evictions)
  done;
  Alcotest.(check bool) "replays happened" true (counter w "chirp.dedup_hit" > 0);
  Alcotest.(check bool) "evictions happened" true
    (counter w "chirp.dedup_evictions" > 0)

(* A server restart loses sessions; the client re-authenticates behind
   the caller's back and the principal provably cannot change. *)
let restart_reauth_keeps_identity () =
  let w = make_world () in
  let c = connect_fred w in
  ok "mkdir" (Client.mkdir c "/mine");
  ok "put" (Client.put c ~path:"/mine/f" ~data:"before");
  let principal_before = Client.principal c in
  Server.crash w.server;
  Server.restart w.server;
  Alcotest.(check string) "read after restart" "before"
    (ok "get" (Client.get c "/mine/f"));
  Alcotest.(check string) "same principal" principal_before (Client.principal c);
  Alcotest.(check bool) "reauth happened" true (counter w "chirp.reauth" > 0);
  Alcotest.(check int) "no identity drift" 0 (counter w "chirp.reauth.mismatch")

(* Graceful degradation: the session table sheds load at the cap, and
   idle sessions (e.g. whose owners timed out mid-handshake) expire. *)
let session_cap_sheds_then_recovers () =
  let w = make_world ~max_sessions:2 ~session_idle_ns:5_000_000_000L () in
  let _c1 = connect_fred ~name:"A" w in
  let _c2 = connect_fred ~name:"B" w in
  Alcotest.(check int) "table full" 2 (Server.session_count w.server);
  let cert = Ca.issue w.ca (Subject.of_string_exn "/O=UnivNowhere/CN=C") in
  (match
     Client.connect w.net ~addr:server_addr ~credentials:[ Credential.Gsi cert ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "third session admitted over the cap");
  Alcotest.(check bool) "shed counted" true (counter w "chirp.session.reject" > 0);
  (* Both sessions go idle past the expiry window; a newcomer gets in. *)
  Clock.advance w.clock 6_000_000_000L;
  (match
     Client.connect w.net ~addr:server_addr ~credentials:[ Credential.Gsi cert ]
   with
  | Ok c -> Alcotest.(check string) "principal" "globus:/O=UnivNowhere/CN=C" (Client.principal c)
  | Error m -> Alcotest.failf "post-expiry connect: %s" m);
  Alcotest.(check bool) "expiry counted" true (counter w "chirp.session.expired" > 0)

(* Catalog liveness: a partition makes a server's entry go stale and
   vanish from discovery; the first heartbeat after the heal brings it
   back. *)
let catalog_eviction_and_heartbeat_recovery () =
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  let catalog = Catalog.create ~staleness_ns:5_000_000_000L net ~addr:"cat.grid.edu:9097" in
  let hb =
    Catalog.heartbeat ~src:"alpha.grid.edu" ~interval_ns:2_000_000_000L net
      ~catalog:"cat.grid.edu:9097" ~name:"alpha" ~server_addr:server_addr
      ~owner:"chirpuser"
  in
  Alcotest.(check int) "registered" 1 (List.length (Catalog.entries catalog));
  Network.set_fault_plan net
    (Fault.plan
       ~partitions:
         [ Fault.window ~from_ns:1_000_000_000L ~until_ns:30_000_000_000L
             ~between:("alpha.grid.edu", "cat.grid.edu") () ]
       ());
  (* Heartbeats due during the partition are lost. *)
  Clock.advance clock 2_000_000_000L;
  Alcotest.(check bool) "tick fails inside partition" false (Catalog.tick hb);
  Alcotest.(check bool) "miss recorded" true (Catalog.heartbeats_missed hb > 0);
  (* Staleness passes: the catalog stops advertising the server. *)
  Clock.advance clock 4_000_000_000L;
  Alcotest.(check int) "evicted" 0 (List.length (Catalog.entries catalog));
  (* Partition heals; the next tick re-registers immediately. *)
  Clock.advance clock 25_000_000_000L;
  Alcotest.(check bool) "tick succeeds after heal" true (Catalog.tick hb);
  match Catalog.entries catalog with
  | [ e ] -> Alcotest.(check string) "same name" "alpha" e.Catalog.name
  | l -> Alcotest.failf "expected 1 entry after heal, got %d" (List.length l)

(* The acceptance bar for determinism: two runs of the same seeded
   chaotic workload produce byte-identical traces and metrics. *)
let deterministic_chaos_run () =
  let run () =
    Kernel.with_fresh_programs (fun () ->
        let w = make_world () in
        Program.register "sim" (fun _ ->
            match Libc.write_file "out.dat" ~contents:"det" with
            | Ok () -> 0
            | Error _ -> 1);
        Network.set_fault_plan w.net
          (Fault.plan ~seed:4242L
             ~default_profile:
               (Fault.profile ~drop:0.1 ~reset:0.02 ~corrupt:0.02
                  ~truncate:0.02 ~jitter:0.1 ())
             ());
        let c = connect_fred w in
        ok "mkdir" (Client.mkdir c "/work");
        ok "put" (Client.put c ~path:"/work/sim.exe" ~data:(Program.marker "sim"));
        for i = 1 to 8 do
          let path = Printf.sprintf "/work/f%d" i in
          ok "put" (Client.put c ~path ~data:(String.make 48 'z'));
          ignore (Client.get c path)
        done;
        ignore (Client.exec c ~path:"/work/sim.exe" ~args:[ "sim.exe" ] ());
        ( Trace.to_json (Kernel.trace_ring w.kernel),
          Metrics.to_json (Kernel.metrics w.kernel),
          Clock.now w.clock ))
  in
  let t1, m1, c1 = run () in
  let t2, m2, c2 = run () in
  Alcotest.(check string) "trace byte-identical" t1 t2;
  Alcotest.(check string) "metrics byte-identical" m1 m2;
  Alcotest.(check int64) "clock identical" c1 c2

(* [IDBOX_CHAOS_SEED] when set (CI's seed loop sets it), else [default]. *)
let chaos_seed default =
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try Int64.of_string s with _ -> default)
  | None -> default

(* Satellite: decoders stay total under exactly the damage the network
   can inflict.  No exception, and a damaged checksummed envelope is
   never accepted as a different message. *)
let decoders_total_under_mangling () =
  let rng = Fault.rng (chaos_seed 99L) in
  let body_length frame =
    match Wire.decode frame with Ok [ _; _; body ] -> String.length body | _ -> -1
  in
  (* Sealed bodies that end at every offset 0-15 of the sum's 16-byte
     block, so every tail length is mangled. *)
  let tails =
    List.init 16 (fun tail ->
        let rec pick n =
          let frame = Protocol.encode_response (Protocol.R_str (String.make n 's')) in
          if body_length frame mod 16 = tail then frame else pick (n + 1)
        in
        pick 0)
  in
  let victims =
    [
      Wire.encode [ "register"; "alpha"; server_addr; "chirpuser" ];
      Protocol.encode_request
        (Protocol.Op
           { token = "tok"; req_id = "tok#1";
             op = Protocol.Put { path = "/work/f"; data = String.make 64 'q' } });
      Protocol.encode_response (Protocol.R_data (String.make 128 'd'));
      Protocol.encode_response Protocol.R_ok;
      Protocol.encode_response (Protocol.R_data (String.make 70_000 'd'));
    ]
    @ tails
  in
  for _ = 1 to 400 do
    List.iter
      (fun original ->
        let damaged = Fault.mangle rng original in
        (* Totality: decoding damage may fail, never raise. *)
        (match Wire.decode damaged with Ok _ | Error _ -> ());
        (match Protocol.decode_request damaged with Ok _ | Error _ -> ());
        match Protocol.decode_response damaged with
        | Error _ -> ()
        | Ok _ ->
          (* The envelope checksum lets damage through only if the
             mangling happened to be the identity. *)
          if not (String.equal damaged original) then
            Alcotest.failf "damaged envelope accepted (%d bytes)"
              (String.length damaged))
      victims
  done

(* Under heavy corruption a read-only principal never slips a write
   through: every put fails, with EACCES or a transport error, never
   success. *)
let acl_holds_under_corruption () =
  let w = make_world () in
  Network.set_fault_plan w.net
    (Fault.plan ~seed:13L
       ~default_profile:(Fault.profile ~drop:0.1 ~corrupt:0.15 ~truncate:0.1 ())
       ());
  let laptop =
    match
      Client.connect ~policy:chaos_policy w.net ~addr:server_addr
        ~credentials:[ Credential.Host "laptop.cs.nowhere.edu" ]
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  for i = 1 to 20 do
    match Client.put laptop ~path:(Printf.sprintf "/w%d" i) ~data:"x" with
    | Ok () -> Alcotest.fail "read-only principal wrote under chaos"
    | Error _ -> ()
  done;
  (* And reads still eventually succeed despite the damage. *)
  ignore (ok "readdir" (Client.readdir laptop "/"))

(* --- the cluster acceptance scenario --------------------------------- *)

module World = Idbox_cluster.World
module Router = Idbox_cluster.Router
module Ring = Idbox_cluster.Ring
module Replica = Idbox_cluster.Replica

let transient_errno = function
  | Errno.ETIMEDOUT | Errno.ECONNRESET | Errno.ECONNREFUSED
  | Errno.EHOSTUNREACH ->
    true
  | _ -> false

let vstr = function Ok () -> "ok" | Error e -> Errno.to_string e
let gstr = function Ok v -> v | Error e -> Errno.to_string e

(* The shared workload script, run identically against the chaotic
   3-node cluster and the calm single-server oracle.  Transient
   transport verdicts are retried (time moves, membership reconverges);
   the *final* verdict of every step goes into the transcript.  On a
   calm network the retry path never fires, so the oracle runs the
   same code. *)
let cluster_steps w alice visitor =
  let buf = ref [] in
  let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
  let settled r op =
    let rec go n =
      match op () with
      | Error e when transient_errno e && n < 12 ->
        Clock.advance (World.clock w) 2_000_000_000L;
        World.tick w;
        Router.sync r;
        go (n + 1)
      | v -> v
    in
    go 0
  in
  for i = 0 to 23 do
    Clock.advance (World.clock w) 2_000_000_000L;
    World.tick w;
    let dir = Printf.sprintf "/d%d" (i mod 6) in
    let v = Printf.sprintf "v%d" i in
    record "%02d put %s %s" i dir
      (vstr (settled alice (fun () -> Router.put alice ~path:(dir ^ "/f") ~data:v)));
    record "%02d get %s %s" i dir
      (gstr (settled alice (fun () -> Router.get alice (dir ^ "/f"))));
    record "%02d intrude %s %s" i dir
      (vstr
         (settled visitor (fun () ->
              Router.put visitor ~path:(dir ^ "/intruder") ~data:"evil")))
  done;
  (* Converge: ride out any still-open partition until every world
     member is back in the routers' view. *)
  let want = List.length (World.members w) in
  let rec heal n =
    Router.sync alice;
    if List.length (Router.nodes alice) < want && n < 80 then begin
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      heal (n + 1)
    end
  in
  heal 0;
  Router.sync visitor;
  Alcotest.(check int) "view reconverged" want (List.length (Router.nodes alice));
  (* Every shard answers the last value written to it — nothing was
     lost to the partition, the ejection or the re-admission. *)
  for j = 0 to 5 do
    let dir = Printf.sprintf "/d%d" j in
    record "final %s %s" dir
      (gstr (settled alice (fun () -> Router.get alice (dir ^ "/f"))))
  done;
  String.concat "\n" (List.rev !buf)

let cluster_world hosts ?staleness_ns ?heartbeat_interval_ns ?trace () =
  let w = World.create ?staleness_ns ?heartbeat_interval_ns ?trace () in
  List.iter
    (fun h ->
      match World.add_node w ~host:h with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    hosts;
  World.settle w;
  let policy =
    { Client.default_policy with max_attempts = 12; retry_budget = 100_000 }
  in
  let connect credentials =
    match World.connect ~policy w ~credentials with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let alice = connect [ World.issue w "Alice" ] in
  let visitor = connect [ Credential.Host "visitor.grid.edu" ] in
  for j = 0 to 5 do
    ok "mkdir" (Router.mkdir alice (Printf.sprintf "/d%d" j))
  done;
  (w, alice, visitor)

(* 3-node ring at 10% drop, with a mid-run partition isolating one
   replica (from clients, peers and the catalog at once): its lease
   goes stale and it is ejected, the workload rides over on the
   survivors, and the heal re-admits it with its ranges migrated
   back. *)
let cluster_chaos_run () =
  let trace = Trace.ring ~capacity:8192 () in
  let w, alice, visitor =
    cluster_world
      [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ]
      ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L ~trace
      ()
  in
  Network.set_fault_plan (World.net w)
    (Fault.plan ~seed:2005L
       ~default_profile:(Fault.profile ~drop:0.1 ())
       ~partitions:
         (List.map
            (fun peer ->
              Fault.window ~from_ns:20_000_000_000L
                ~until_ns:90_000_000_000L ~between:("gamma.grid.edu", peer) ())
            [ "client"; "alpha.grid.edu"; "beta.grid.edu"; "catalog.grid.edu" ])
       ());
  let transcript = cluster_steps w alice visitor in
  let c name = Metrics.counter_value_of (Network.metrics (World.net w)) name in
  Alcotest.(check bool) "partition hit" true (c "net.partition" > 0);
  Alcotest.(check bool) "drops injected" true (c "net.drop" > 0);
  Alcotest.(check bool) "isolated node ejected" true
    (c "cluster.member.leave" > 0);
  (* (Read failover has its own dedicated test in the cluster suite;
     here the ejection usually reroutes before a read needs to fail
     over.) *)
  Alcotest.(check bool) "writes replicated" true (c "cluster.replicate" > 0);
  ( transcript,
    Metrics.to_json (Network.metrics (World.net w)),
    Trace.to_json trace,
    Clock.now (World.clock w) )

let cluster_oracle_transcript () =
  let w, alice, visitor = cluster_world [ "alpha.grid.edu" ] () in
  cluster_steps w alice visitor

(* Tentpole scenario: split-brain divergence, then anti-entropy
   convergence.  Gamma is partitioned from the clients, its peers and
   the catalog; the majority keeps writing through the router while a
   second client (on an unpartitioned host) keeps writing directly to
   gamma, so both sides of the split accept acknowledged mutations for
   the same keys.  After the heal, rebalance migrates the majority's
   data back, and the repair loop (digest exchange + exact installs)
   must converge every member — owners and stale non-owners alike — to
   byte-identical per-key digests and identical ACL verdicts, for two
   runs of the same seed. *)
let partition_heal_repair_converges () =
  let seed =
    match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
    | Some s -> (try Int64.of_string s with _ -> 2005L)
    | None -> 2005L
  in
  let run () =
    let w, alice, _visitor =
      cluster_world
        [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ]
        ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L ()
    in
    Network.set_fault_plan (World.net w)
      (Fault.plan ~seed
         ~partitions:
           (List.map
              (fun peer ->
                Fault.window ~from_ns:20_000_000_000L
                  ~until_ns:90_000_000_000L
                  ~between:("gamma.grid.edu", peer) ())
              [ "client"; "alpha.grid.edu"; "beta.grid.edu"; "catalog.grid.edu" ])
         ());
    let settled r op =
      let rec go n =
        match op () with
        | Error e when transient_errno e && n < 12 ->
          Clock.advance (World.clock w) 2_000_000_000L;
          World.tick w;
          Router.sync r;
          go (n + 1)
        | v -> v
      in
      go 0
    in
    (* Calm prelude: every key fully replicated before the split. *)
    for i = 0 to 9 do
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      let dir = Printf.sprintf "/d%d" (i mod 6) in
      ok "pre put"
        (settled alice (fun () ->
             Router.put alice ~path:(dir ^ "/f")
               ~data:(Printf.sprintf "pre-%d" i)))
    done;
    (* The split is open (clock is past 20 s).  A client on an
       unpartitioned host still reaches gamma directly and gets its
       writes acknowledged — the minority side of the brain. *)
    let gamma_direct =
      match
        Client.connect ~src:"minority.grid.edu" ~policy:chaos_policy
          (World.net w) ~addr:"gamma.grid.edu:9094"
          ~credentials:[ World.issue w "Alice" ]
      with
      | Ok c -> c
      | Error m -> Alcotest.fail m
    in
    (* Keys gamma replicates (its ring is the stale full one): it holds
       those dirs — and Alice's reserved ACL in them — so overlapping
       minority writes are acknowledged there. *)
    let gamma_ring = Replica.ring (World.replica w "gamma") in
    let gamma_dirs =
      List.filter
        (fun j ->
          List.mem "gamma"
            (Ring.successors gamma_ring
               (Printf.sprintf "d%d" j)
               (World.replicas w)))
        [ 0; 1; 2; 3; 4; 5 ]
    in
    Alcotest.(check bool) "gamma replicates some keys" true (gamma_dirs <> []);
    (* And a key that exists only on the minority side: created on
       gamma during the split, acknowledged there, known nowhere else. *)
    ok "island mkdir" (Client.mkdir gamma_direct "/island");
    for i = 10 to 19 do
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      let dir = Printf.sprintf "/d%d" (i mod 6) in
      ok "major put"
        (settled alice (fun () ->
             Router.put alice ~path:(dir ^ "/f")
               ~data:(Printf.sprintf "major-%d" i)));
      let gdir =
        Printf.sprintf "/d%d"
          (List.nth gamma_dirs (i mod List.length gamma_dirs))
      in
      ok "minor put overlap"
        (Client.put gamma_direct ~path:(gdir ^ "/f")
           ~data:(Printf.sprintf "minor-%d" i));
      ok "minor put extra"
        (Client.put gamma_direct
           ~path:(gdir ^ "/minority")
           ~data:(Printf.sprintf "stray-%d" i));
      ok "minor island put"
        (Client.put gamma_direct
           ~path:(Printf.sprintf "/island/i%d" i)
           ~data:(Printf.sprintf "island-%d" i))
    done;
    (* Ride out the partition; reconverge the router's view. *)
    let rec heal n =
      Router.sync alice;
      if List.length (Router.nodes alice) < 3 && n < 80 then begin
        Clock.advance (World.clock w) 2_000_000_000L;
        World.tick w;
        heal (n + 1)
      end
    in
    heal 0;
    Alcotest.(check int) "view reconverged" 3 (List.length (Router.nodes alice));
    (* Let the heal-triggered sweeps fire (one tick after each node
       observes the membership change), then force sweeps so handoff
       hints from non-owners get processed to completion. *)
    for _ = 1 to 4 do
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      Router.sync alice
    done;
    for _ = 1 to 3 do
      World.repair_sweep w;
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w
    done;
    (* Convergence: for every key, every member that holds a copy —
       owner or stray — reports the same digest, and every ring owner
       of the key does hold one (island included: its primary adopted
       the minority's acknowledged creation). *)
    let members = World.members w in
    let ring = Replica.ring (World.replica w "alpha") in
    let buf = ref [] in
    let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
    List.iter
      (fun key ->
        let digest_of name =
          match Server.subtree_digest (World.server w name) key with
          | Ok d -> Some d
          | Error _ -> None
        in
        let holders =
          List.filter_map
            (fun n -> Option.map (fun d -> (n, d)) (digest_of n))
            members
        in
        let owners = Ring.successors ring key (World.replicas w) in
        List.iter
          (fun o ->
            Alcotest.(check bool)
              (Printf.sprintf "owner %s holds %s" o key)
              true (List.mem_assoc o holders))
          owners;
        match holders with
        | [] -> Alcotest.failf "no member holds %s" key
        | (first, d) :: rest ->
          List.iter
            (fun (n, d') ->
              Alcotest.(check string)
                (Printf.sprintf "%s digest: %s = %s" key first n)
                d d')
            rest;
          record "%s %s holders=%s" key d
            (String.concat "," (List.map fst holders)))
      [ "d0"; "d1"; "d2"; "d3"; "d4"; "d5"; "island" ];
    (* ACL verdicts are part of convergence: every owner of a key
       reports the same ACL text for it and denies the read-only
       visitor identically (the probe put is refused, so it mutates
       nothing). *)
    List.iter
      (fun key ->
        let probes =
          List.map
            (fun name ->
              let addr = name ^ ".grid.edu:9094" in
              let direct creds =
                match
                  Client.connect ~src:"probe.grid.edu" ~policy:chaos_policy
                    (World.net w) ~addr ~credentials:creds
                with
                | Ok c -> c
                | Error m -> Alcotest.failf "probe connect %s: %s" name m
              in
              let a = direct [ World.issue w "Alice" ] in
              let v = direct [ Credential.Host "probe.grid.edu" ] in
              let acl = gstr (Client.getacl a ("/" ^ key)) in
              let deny =
                vstr (Client.put v ~path:("/" ^ key ^ "/intruder") ~data:"evil")
              in
              record "%s@%s acl %s intrude %s" key name acl deny;
              (name, acl, deny))
            (Ring.successors ring key (World.replicas w))
        in
        match probes with
        | [] -> Alcotest.failf "no owners for %s" key
        | (first, acl0, deny0) :: rest ->
          List.iter
            (fun (name, acl, deny) ->
              Alcotest.(check string)
                (Printf.sprintf "%s ACL text: %s = %s" key first name)
                acl0 acl;
              Alcotest.(check string)
                (Printf.sprintf "%s denial: %s = %s" key first name)
                deny0 deny)
            rest)
      [ "d0"; "island" ];
    let c name = Metrics.counter_value_of (Network.metrics (World.net w)) name in
    Alcotest.(check bool) "forward failures noted" true
      (c "cluster.repair.pending" > 0);
    Alcotest.(check bool) "divergence detected" true
      (c "cluster.repair.diverged" > 0);
    Alcotest.(check bool) "repairs pushed" true (c "cluster.repair.push" > 0);
    ( String.concat "\n" (List.rev !buf),
      Metrics.to_json (Network.metrics (World.net w)),
      Clock.now (World.clock w) )
  in
  let t1, m1, c1 = run () in
  let t2, m2, c2 = run () in
  Alcotest.(check string) "two seeded runs: digests + verdicts" t1 t2;
  Alcotest.(check string) "two seeded runs: metrics byte-identical" m1 m2;
  Alcotest.(check int64) "two seeded runs: clock" c1 c2

(* --- control-plane chaos (ISSUE 7) ----------------------------------- *)

(* A deliberate scale-down racing a partition: gamma is cut off from
   clients, peers and the catalog, and *while the partition is open*
   delta is scaled out cleanly.  Writes keep landing on the survivors;
   after the heal, rebalance and repair re-establish the replication
   factor, and every mutation that was ever acknowledged is still
   readable.  Two runs of the same seed are byte-identical. *)
let scale_down_during_partition () =
  let seed =
    match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
    | Some s -> (try Int64.of_string s with _ -> 424242L)
    | None -> 424242L
  in
  let run () =
    let w, alice, _visitor =
      cluster_world
        [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu";
          "delta.grid.edu" ]
        ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L ()
    in
    Network.set_fault_plan (World.net w)
      (Fault.plan ~seed
         ~default_profile:(Fault.profile ~drop:0.05 ())
         ~partitions:
           (List.map
              (fun peer ->
                Fault.window ~from_ns:20_000_000_000L
                  ~until_ns:70_000_000_000L
                  ~between:("gamma.grid.edu", peer) ())
              [ "client"; "alpha.grid.edu"; "beta.grid.edu"; "delta.grid.edu";
                "catalog.grid.edu" ])
         ());
    let buf = ref [] in
    let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
    let acked : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let settled op =
      let rec go n =
        match op () with
        | Error e when transient_errno e && n < 12 ->
          Clock.advance (World.clock w) 2_000_000_000L;
          World.tick w;
          Router.sync alice;
          go (n + 1)
        | v -> v
      in
      go 0
    in
    let put path data =
      match settled (fun () -> Router.put alice ~path ~data) with
      | Ok () ->
        Hashtbl.replace acked path data;
        record "put %s %s ok" path data
      | Error e -> record "put %s %s %s" path data (Errno.to_string e)
    in
    (* Calm prelude: every key written (and replicated) before the split. *)
    for i = 0 to 9 do
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      put (Printf.sprintf "/d%d/f" (i mod 6)) (Printf.sprintf "pre-%d" i)
    done;
    (* The partition is open.  Keep writing through it; halfway in,
       scale delta out while gamma is still unreachable. *)
    for i = 10 to 19 do
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      if i = 14 then begin
        (match World.remove_node w "delta" with
         | Ok () -> ()
         | Error m -> Alcotest.failf "remove delta: %s" m);
        World.settle w;
        record "scale-down delta members=%s"
          (String.concat "," (World.members w))
      end;
      put (Printf.sprintf "/d%d/f" (i mod 6)) (Printf.sprintf "storm-%d" i)
    done;
    (* Ride out the partition until the routers see the final membership
       (alpha, beta and a re-admitted gamma — delta stays gone). *)
    let survivors = [ "alpha"; "beta"; "gamma" ] in
    let rec heal n =
      Router.sync alice;
      if Router.nodes alice <> survivors && n < 80 then begin
        Clock.advance (World.clock w) 2_000_000_000L;
        World.tick w;
        heal (n + 1)
      end
    in
    heal 0;
    Alcotest.(check (list string)) "view reconverged on the survivors"
      survivors (Router.nodes alice);
    Alcotest.(check (list string)) "delta stayed out"
      [ "alpha"; "beta"; "gamma" ] (World.members w);
    for _ = 1 to 4 do
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      Router.sync alice
    done;
    for _ = 1 to 3 do
      World.repair_sweep w;
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w
    done;
    (* Zero lost acked mutations: every acknowledged write is readable
       with its last acknowledged value. *)
    let paths =
      List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) acked [])
    in
    List.iter
      (fun path ->
        let want = Hashtbl.find acked path in
        (match settled (fun () -> Router.get alice path) with
         | Ok got ->
           Alcotest.(check string)
             (Printf.sprintf "acked mutation survives: %s" path)
             want got
         | Error e ->
           Alcotest.failf "acked mutation lost: %s (%s)" path
             (Errno.to_string e));
        record "final %s %s" path want)
      paths;
    let c name = Metrics.counter_value_of (Network.metrics (World.net w)) name in
    Alcotest.(check bool) "partition hit" true (c "net.partition" > 0);
    (* The deregister is itself a droppable message; when it is lost the
       stopped heartbeat ages the lease out instead (a second ejection on
       top of gamma's).  Either way delta's lease must end. *)
    Alcotest.(check bool) "scale-down ended delta's lease" true
      (c "catalog.deregister" >= 1 || c "cluster.member.leave" >= 2);
    Alcotest.(check bool) "isolated node was ejected" true
      (c "cluster.member.leave" > 0);
    Alcotest.(check bool) "writes kept replicating" true
      (c "cluster.replicate" > 0);
    ( String.concat "\n" (List.rev !buf),
      Metrics.to_json (Network.metrics (World.net w)),
      Clock.now (World.clock w) )
  in
  let t1, m1, c1 = run () in
  let t2, m2, c2 = run () in
  Alcotest.(check string) "two seeded runs: transcript" t1 t2;
  Alcotest.(check string) "two seeded runs: metrics byte-identical" m1 m2;
  Alcotest.(check int64) "two seeded runs: clock" c1 c2

(* A node that flaps faster than the membership layer can notice: the
   breakers absorb it.  Each bounce trips gamma's breaker open (reads
   fail over, further sweeps short-circuit), and each recovery is
   probed half-open and re-closed — with zero membership churn and no
   acknowledged write lost. *)
let flapping_node_absorbed_by_breakers () =
  let run () =
    let w, alice, _visitor =
      cluster_world
        [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ]
        ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L ()
    in
    let buf = ref [] in
    let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
    let acked : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let settled op =
      let rec go n =
        match op () with
        | Error e when transient_errno e && n < 12 ->
          Clock.advance (World.clock w) 2_000_000_000L;
          World.tick w;
          Router.sync alice;
          go (n + 1)
        | v -> v
      in
      go 0
    in
    let put path data =
      (match settled (fun () -> Router.put alice ~path ~data) with
       | Ok () -> Hashtbl.replace acked path data
       | Error e -> Alcotest.failf "put %s: %s" path (Errno.to_string e));
      record "put %s %s" path data
    in
    let get path =
      record "get %s %s" path
        (gstr (settled (fun () -> Router.get alice path)))
    in
    for j = 0 to 5 do
      put (Printf.sprintf "/d%d/f" j) (Printf.sprintf "seed-%d" j)
    done;
    (* A dir gamma owns (its sweeps feed gamma's breaker) and one it
       does not (writes keep landing while gamma is down).  The sharding
       is name-hashed, so probe dir names until both primaries appear;
       dirs beyond the pre-created six are made on demand. *)
    let dir_matching pred =
      let rec go j =
        if j > 40 then Alcotest.fail "no dir with a matching primary"
        else
          let d = Printf.sprintf "/d%d" j in
          match Router.node_for alice d with
          | Some n when pred n ->
            if j > 5 then begin
              (match settled (fun () -> Router.mkdir alice d) with
               | Ok () -> ()
               | Error e -> Alcotest.failf "mkdir %s: %s" d (Errno.to_string e));
              put (d ^ "/f") (Printf.sprintf "seed-%d" j)
            end;
            d ^ "/f"
          | _ -> go (j + 1)
      in
      go 0
    in
    let gdir = dir_matching (String.equal "gamma")
    and sdir = dir_matching (fun n -> not (String.equal n "gamma")) in
    for round = 1 to 3 do
      World.crash w "gamma";
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      (* Three failed sweeps trip the breaker; the fourth short-circuits
         straight to the surviving replica. *)
      for _ = 1 to 4 do
        get gdir
      done;
      put sdir (Printf.sprintf "flap-%d" round);
      World.restart w "gamma";
      Clock.advance (World.clock w) 2_000_000_000L;
      World.tick w;
      (* The next sweep is granted as the half-open probe; its success
         re-closes the breaker. *)
      get gdir;
      get gdir;
      put gdir (Printf.sprintf "healed-%d" round)
    done;
    let c name = Metrics.counter_value_of (Network.metrics (World.net w)) name in
    Alcotest.(check bool) "breaker opened each bounce" true
      (c "cluster.breaker.open" >= 3);
    Alcotest.(check bool) "breaker re-closed each recovery" true
      (c "cluster.breaker.close" >= 3);
    Alcotest.(check bool) "open breaker short-circuited sweeps" true
      (c "cluster.breaker.skip" >= 3);
    Alcotest.(check int) "no membership churn" 0 (c "cluster.member.leave");
    Hashtbl.fold (fun p v acc -> (p, v) :: acc) acked []
    |> List.sort compare
    |> List.iter (fun (path, want) ->
           Alcotest.(check string)
             (Printf.sprintf "acked mutation survives: %s" path)
             want
             (gstr (settled (fun () -> Router.get alice path))));
    ( String.concat "\n" (List.rev !buf),
      Metrics.to_json (Network.metrics (World.net w)),
      Clock.now (World.clock w) )
  in
  let t1, m1, c1 = run () in
  let t2, m2, c2 = run () in
  Alcotest.(check string) "two runs: transcript" t1 t2;
  Alcotest.(check string) "two runs: metrics byte-identical" m1 m2;
  Alcotest.(check int64) "two runs: clock" c1 c2

(* Thundering herd against a freshly restarted server: a stampede of
   simultaneous retries overruns the parked-mutation bound, brownout
   sheds the excess with retry-after hints, well-behaved clients wait
   the hint out and land on the drained queue — nothing acknowledged is
   lost and the server never collapses. *)
let thundering_herd_recovery () =
  let run () =
    let w =
      make_world ~max_parked:8 ~flush_interval_ns:500_000_000L ()
    in
    let c = connect_fred w in
    let buf = ref [] in
    let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
    ok "mkdir" (Client.mkdir c "/work");
    for i = 1 to 4 do
      ok "pre put"
        (Client.put c
           ~path:(Printf.sprintf "/work/pre%d" i)
           ~data:(Printf.sprintf "pre-%d" i))
    done;
    (* The crash that provokes the herd; recovery replays the WAL. *)
    Server.crash w.server;
    Clock.advance w.clock 3_000_000_000L;
    Server.restart w.server;
    (* First retrier re-authenticates its session... *)
    ok "reauth put" (Client.put c ~path:"/work/reauth" ~data:"back");
    record "reauth ok";
    (* ...and the herd arrives at once: 12 in-flight mutations against a
       parked bound of 8 (brownout at 6). *)
    let submit op =
      Network.submit w.net ~src:"client" ~timeout_ns:2_000_000_000L
        ~addr:server_addr (Client.prepare c op)
    in
    let toks =
      List.init 12 (fun i ->
          submit (Protocol.Put { path = Printf.sprintf "/work/h%d" i;
                                 data = "herd" }))
    in
    let pump pred =
      let rec go guard =
        if pred () then ()
        else if guard = 0 then Alcotest.fail "pump: no progress"
        else if Network.step w.net then go (guard - 1)
        else Alcotest.fail "pump: network idle before condition held"
      in
      go 100_000
    in
    pump (fun () -> counter w "chirp.shed.mutation" >= 6);
    Alcotest.(check bool) "the stampede browned the server out" true
      (Server.brownout w.server);
    (* Reads are still served mid-stampede. *)
    let rd = submit (Protocol.Readdir "/work") in
    pump (fun () -> Network.poll rd <> None);
    (match Network.poll rd with
     | Some (Ok text) ->
       (match Client.interpret text with
        | Ok (Protocol.R_names _) -> record "mid-herd readdir ok"
        | Ok _ -> Alcotest.fail "readdir: unexpected response"
        | Error e ->
          Alcotest.failf "readdir shed under herd: %s" (Errno.to_string e))
     | _ -> Alcotest.fail "readdir got no reply");
    (* Well-behaved herd members are shed now, wait the hint out (which
       spans the flush tick draining the parked queue) and land on the
       retry — counted distinctly from transport-fault retries. *)
    for i = 1 to 6 do
      ok "retry put"
        (Client.put c
           ~path:(Printf.sprintf "/work/r%d" i)
           ~data:(Printf.sprintf "retried-%d" i))
    done;
    pump (fun () -> List.for_all (fun t -> Network.poll t <> None) toks);
    let served, shed =
      List.partition
        (fun t ->
          match Network.poll t with
          | Some (Ok text) ->
            (match Client.interpret text with Ok _ -> true | Error _ -> false)
          | _ -> false)
        toks
    in
    record "herd served=%d shed=%d" (List.length served) (List.length shed);
    Alcotest.(check bool) "some of the herd was admitted" true
      (List.length served >= 1);
    Alcotest.(check bool) "the excess was shed, not dropped" true
      (List.length shed >= 1);
    Alcotest.(check bool) "shed retries counted distinctly" true
      (counter w "chirp.retry.shed" >= 1);
    Alcotest.(check bool) "brownout entered under the herd" true
      (counter w "chirp.brownout.enter" >= 1);
    Alcotest.(check bool) "brownout exited after the drain" true
      (counter w "chirp.brownout.exit" >= 1);
    Alcotest.(check bool) "server recovered" false (Server.brownout w.server);
    (* Nothing acknowledged was lost: pre-crash state survived the WAL
       replay, and every retried mutation is readable. *)
    for i = 1 to 4 do
      Alcotest.(check string) "pre-crash data survived"
        (Printf.sprintf "pre-%d" i)
        (ok "get" (Client.get c (Printf.sprintf "/work/pre%d" i)))
    done;
    for i = 1 to 6 do
      Alcotest.(check string) "retried mutation landed"
        (Printf.sprintf "retried-%d" i)
        (ok "get" (Client.get c (Printf.sprintf "/work/r%d" i)))
    done;
    record "recovered";
    ( String.concat "\n" (List.rev !buf),
      Metrics.to_json (Kernel.metrics w.kernel),
      Clock.now w.clock )
  in
  let t1, m1, c1 = run () in
  let t2, m2, c2 = run () in
  Alcotest.(check string) "two runs: transcript" t1 t2;
  Alcotest.(check string) "two runs: metrics byte-identical" m1 m2;
  Alcotest.(check int64) "two runs: clock" c1 c2

let cluster_chaos_matches_oracle () =
  let t1, m1, tr1, c1 = cluster_chaos_run () in
  let t2, m2, tr2, c2 = cluster_chaos_run () in
  Alcotest.(check string) "two seeded runs: transcript" t1 t2;
  Alcotest.(check string) "two seeded runs: metrics byte-identical" m1 m2;
  Alcotest.(check string) "two seeded runs: trace byte-identical" tr1 tr2;
  Alcotest.(check int64) "two seeded runs: clock" c1 c2;
  Alcotest.(check string) "verdicts match the single-server oracle"
    (cluster_oracle_transcript ()) t1

(* --- geo-replication chaos (ISSUE 10) -------------------------------- *)

module Geo = Idbox_cluster.Geo

let contains ~sub s =
  let n = String.length sub in
  let rec find i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || find (i + 1))
  in
  find 0

(* Two region worlds on one network under one clock: separate
   catalogs, kernels and exports; one CA (one grid, two sites).  A 2 s
   shipping cadence so a scenario's clock-stepping loop crosses many
   group commits. *)
let geo_regions ~seed () =
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  ignore seed;
  let ca = Ca.create ~name:"Grid CA" in
  let mk region hosts =
    let w =
      World.create ~net ~ca
        ~catalog_addr:("catalog." ^ region ^ ".grid.edu:9097")
        ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L ()
    in
    List.iter
      (fun h ->
        match World.add_node w ~host:h with
        | Ok () -> ()
        | Error m -> Alcotest.fail m)
      hosts;
    World.settle w;
    w
  in
  let east = mk "east" [ "ea.grid.edu"; "eb.grid.edu" ] in
  let west = mk "west" [ "wa.grid.edu"; "wb.grid.edu" ] in
  let geo =
    Geo.link ~ship_interval_ns:2_000_000_000L ~primary:"east" net
      [ ("east", east); ("west", west) ]
  in
  Geo.ship_now geo;
  (clock, net, geo, east, west)

(* The peer endpoints' decoders are total as well.  Every verb a geo
   endpoint or a replica endpoint speaks is sent mangled — the whole
   payload, so the framing breaks, and one field at a time, so an epoch
   or an LSN stops being a number while the framing holds.  Each is
   answered with a Wire-framed reply; a handler that raised would show
   up as a connection reset instead. *)
let endpoints_total_under_mangling () =
  let _clock, net, _geo, _east, west = geo_regions ~seed:0L () in
  let rng = Fault.rng 42L in
  let alice = World.principal_of "Alice" in
  let op = Protocol.operation_to_wire (Protocol.Mkdir "/mangled") in
  let entry =
    Replica.encode_entry (Server.Snap_dir { path = "/mangled"; acl = "" })
  in
  let member = World.server west (List.hd (World.members west)) in
  let endpoints =
    [
      ( "geo.west.grid.edu:9098",
        [
          [ "seg"; "east"; "1"; "1"; "1";
            Idbox_chirp.Wal.frame_segment [ Wire.encode [ "m"; alice; op ] ] ];
          [ "hb"; "east"; "1"; "1" ];
          [ "repair"; "east"; "1"; "/mangled"; entry ];
          [ "reconciled"; "east"; "1"; "1" ];
          [ "epochs"; alice; "2" ];
        ] );
      ( Replica.repl_addr (Server.addr member),
        [
          [ "apply"; alice; op ];
          [ "install"; entry ];
          [ "digest"; "/mangled"; "dir" ];
          [ "epochs"; alice; "2" ];
        ] );
    ]
  in
  let send addr payload =
    match Network.call net ~src:"fuzzer.grid.edu" ~addr payload with
    | Ok reply ->
      (match Wire.decode reply with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "%s: reply does not decode: %s" addr m)
    | Error e -> Alcotest.failf "%s: no reply (%s)" addr (Errno.to_string e)
  in
  List.iter
    (fun (addr, verbs) ->
      List.iter
        (fun fields ->
          for _ = 1 to 40 do
            send addr (Fault.mangle rng (Wire.encode fields))
          done;
          List.iteri
            (fun i _ ->
              for _ = 1 to 8 do
                send addr
                  (Wire.encode
                     (List.mapi
                        (fun j f -> if i = j then Fault.mangle rng f else f)
                        fields))
              done)
            fields)
        verbs)
    endpoints

let geo_reader geo w ~region ?policy ?bound_ns () =
  match
    Geo.connect geo ~region
      ~credentials:[ World.issue w "Alice" ]
      ?policy ?bound_ns ()
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "geo connect %s: %s" region m

(* One step of simulated operations: a second of wall time, both
   regions' heartbeats/repair, and the shipping cadence. *)
let geo_step clock geo east west =
  Clock.advance clock 1_000_000_000L;
  World.tick east;
  World.tick west;
  Geo.tick geo

let geo_metrics net east west =
  Metrics.to_json (Network.metrics net)
  ^ Metrics.to_json (Kernel.metrics (World.kernel east))
  ^ Metrics.to_json (Kernel.metrics (World.kernel west))

(* Region partition: the WAN between east and west is cut for 30
   simulated seconds.  The secondary keeps serving every read its
   staleness lease can prove (a generous bound covers the whole cut)
   and answers ESTALE under a tight bound — it never serves a read it
   cannot bound, and never blocks on the dead link.  Two runs of the
   same seed are byte-identical. *)
let geo_partition_serves_in_bound_reads () =
  let seed = chaos_seed 1977L in
  let run () =
    let clock, net, geo, east, west = geo_regions ~seed () in
    Network.set_fault_plan net
      (Fault.plan ~seed
         ~partitions:
           (Geo.wan_windows geo ~from_ns:20_000_000_000L
              ~until_ns:50_000_000_000L ~between:("east", "west") ())
         ());
    let e = geo_reader geo east ~region:"east" () in
    let wide =
      geo_reader geo west ~region:"west" ~policy:Geo.Stale
        ~bound_ns:120_000_000_000L ()
    in
    let tight =
      geo_reader geo west ~region:"west" ~policy:Geo.Stale
        ~bound_ns:3_000_000_000L ()
    in
    let buf = ref [] in
    let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
    ok "mkdir" (Geo.mkdir e "/data");
    for i = 1 to 5 do
      ok "pre put"
        (Geo.put e
           ~path:(Printf.sprintf "/data/f%d" i)
           ~data:(Printf.sprintf "pre-%d" i));
      geo_step clock geo east west
    done;
    Geo.ship_now geo;
    record "pre-partition west read: %s" (gstr (Geo.get wide "/data/f1"));
    (* Ride into the cut (clock passes 20 s). *)
    while Clock.now clock < 22_000_000_000L do
      geo_step clock geo east west
    done;
    (* The primary keeps acking writes it cannot ship yet. *)
    for i = 6 to 9 do
      ok "partition put"
        (Geo.put e
           ~path:(Printf.sprintf "/data/f%d" i)
           ~data:(Printf.sprintf "cut-%d" i));
      geo_step clock geo east west
    done;
    (* In-bound reads are served locally from pre-partition state. *)
    for i = 1 to 5 do
      record "in-bound f%d: %s" i (gstr (Geo.get wide (Printf.sprintf "/data/f%d" i)))
    done;
    Alcotest.(check string) "in-bound read served during the cut" "pre-3"
      (gstr (Geo.get wide "/data/f3"));
    (* Out-of-bound reads answer ESTALE with a retry hint, fast. *)
    (match Geo.get tight "/data/f1" with
    | Error Errno.ESTALE -> record "tight: ESTALE retry-after=%Ld" (Geo.retry_after tight)
    | v -> Alcotest.failf "expected ESTALE during cut, got %s" (gstr v));
    Alcotest.(check bool) "stale verdict counted" true
      (Metrics.counter_value_of (Network.metrics net) "cluster.geo.read.stale"
      > 0);
    (* Heal, and let the cadence drain the backlog. *)
    while Clock.now clock < 52_000_000_000L do
      geo_step clock geo east west
    done;
    let rec catch_up n =
      if
        Geo.applied_lsn (Geo.region geo "west")
        < Geo.tip (Geo.region geo "east")
      then
        if n > 30 then Alcotest.fail "west never caught up after the heal"
        else begin
          geo_step clock geo east west;
          catch_up (n + 1)
        end
    in
    catch_up 0;
    for i = 6 to 9 do
      record "post-heal f%d: %s" i
        (gstr (Geo.get wide (Printf.sprintf "/data/f%d" i)))
    done;
    Alcotest.(check string) "backlog drained to the secondary" "cut-7"
      (gstr (Geo.get wide "/data/f7"));
    ( String.concat "\n" (List.rev !buf),
      geo_metrics net east west,
      Clock.now clock )
  in
  let t1, m1, c1 = run () in
  let t2, m2, c2 = run () in
  Alcotest.(check string) "two seeded runs: transcript" t1 t2;
  Alcotest.(check string) "two seeded runs: metrics byte-identical" m1 m2;
  Alcotest.(check int64) "two seeded runs: clock" c1 c2

(* Promotion racing the partition: the WAN cut isolates the primary
   region; the operator promotes the secondary while the cut is open,
   writes continue on the new primary under a higher fencing epoch,
   and on heal the deposed primary fences itself and is reconciled.
   Every mutation that was ever acknowledged to a client — before the
   cut on the old primary, during it on the new — is readable in both
   regions afterwards: zero lost acked mutations.  Byte-identical
   across reruns of the seed. *)
let geo_promotion_races_partition () =
  let seed = chaos_seed 424242L in
  let run () =
    let clock, net, geo, east, west = geo_regions ~seed () in
    Network.set_fault_plan net
      (Fault.plan ~seed
         ~partitions:
           (Geo.wan_windows geo ~from_ns:20_000_000_000L
              ~until_ns:60_000_000_000L ~between:("east", "west") ())
         ());
    let e = geo_reader geo east ~region:"east" () in
    let w = geo_reader geo west ~region:"west" () in
    let buf = ref [] in
    let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
    let acked = ref [] in
    let ack path data = acked := (path, data) :: !acked in
    ok "mkdir" (Geo.mkdir e "/data");
    for i = 1 to 4 do
      let path = Printf.sprintf "/data/pre%d" i in
      let data = Printf.sprintf "pre-%d" i in
      ok "pre put" (Geo.put e ~path ~data);
      ack path data;
      geo_step clock geo east west
    done;
    (* Group-commit boundary: everything acked so far is shipped. *)
    Geo.ship_now geo;
    while Clock.now clock < 22_000_000_000L do
      geo_step clock geo east west
    done;
    (* The old primary is unreachable from the west: a forwarded write
       fails instead of hanging forever. *)
    (match Geo.put w ~path:"/data/lost" ~data:"never-acked" with
    | Error err -> record "cut forward: %s" (Errno.to_string err)
    | Ok () -> Alcotest.fail "write reached the cut-off primary");
    (* Operator failover: west takes over under epoch 2. *)
    Geo.promote geo "west";
    record "promoted west epoch=%d" (Geo.epoch (Geo.region geo "west"));
    for i = 1 to 4 do
      let path = Printf.sprintf "/data/cut%d" i in
      let data = Printf.sprintf "cut-%d" i in
      ok "failover put" (Geo.put w ~path ~data);
      ack path data;
      geo_step clock geo east west
    done;
    (* Heal; the deposed primary hears the higher epoch, demotes, and
       is reconciled by the new one. *)
    while Clock.now clock < 62_000_000_000L do
      geo_step clock geo east west
    done;
    let rec settle n =
      if
        Geo.role (Geo.region geo "east") = Geo.Primary
        || Geo.needs_reconcile (Geo.region geo "east")
      then
        if n > 30 then Alcotest.fail "east never reconciled after the heal"
        else begin
          geo_step clock geo east west;
          settle (n + 1)
        end
    in
    settle 0;
    record "east role=secondary epoch=%d" (Geo.epoch (Geo.region geo "east"));
    Alcotest.(check bool) "fence fired" true
      (Metrics.counter_value_of (Network.metrics net) "cluster.geo.demote" > 0);
    (* Zero lost acked mutations: both regions serve every ack. *)
    let east_direct =
      match World.connect east ~credentials:[ World.issue east "Alice" ] with
      | Ok r -> r
      | Error m -> Alcotest.fail m
    in
    List.iter
      (fun (path, data) ->
        Alcotest.(check string)
          (Printf.sprintf "west serves %s" path)
          data
          (gstr (Geo.get w path));
        Alcotest.(check string)
          (Printf.sprintf "east serves %s" path)
          data
          (gstr (Router.get east_direct path));
        record "acked %s ok" path)
      (List.rev !acked);
    (* The never-acked write does not exist anywhere. *)
    (match Router.get east_direct "/data/lost" with
    | Error Errno.ENOENT -> record "unacked write absent"
    | v -> Alcotest.failf "unacked write materialised: %s" (gstr v));
    ( String.concat "\n" (List.rev !buf),
      geo_metrics net east west,
      Clock.now clock )
  in
  let t1, m1, c1 = run () in
  let t2, m2, c2 = run () in
  Alcotest.(check string) "two seeded runs: transcript" t1 t2;
  Alcotest.(check string) "two seeded runs: metrics byte-identical" m1 m2;
  Alcotest.(check int64) "two seeded runs: clock" c1 c2

(* Heal + failback: a full failover cycle — writes on east, cut,
   promote west, writes on west (including an ACL change), heal and
   reconcile, failback to east, more writes — must leave both regions
   with byte-identical Merkle digests and ACL verdicts, equal to a
   single-region oracle that ran the same script with no geo layer at
   all.  Byte-identical across reruns of the seed. *)
let geo_failback_matches_oracle () =
  let seed = chaos_seed 7L in
  (* The script, as (phase, op) steps both the geo deployment and the
     oracle run in the same order. *)
  let phase1 = [ ("/d0/a", "v1-a"); ("/d1/b", "v1-b"); ("/d2/c", "v1-c") ] in
  let phase2 = [ ("/d0/a", "v2-a"); ("/d1/d", "v2-d") ] in
  let phase3 = [ ("/d2/c", "v3-c"); ("/d0/e", "v3-e") ] in
  let visitor_entry = "hostname:visitor.grid.edu rl" in
  let keys = [ "d0"; "d1"; "d2" ] in
  let run () =
    let clock, net, geo, east, west = geo_regions ~seed () in
    Network.set_fault_plan net
      (Fault.plan ~seed
         ~partitions:
           (Geo.wan_windows geo ~from_ns:20_000_000_000L
              ~until_ns:40_000_000_000L ~between:("east", "west") ())
         ());
    let e = geo_reader geo east ~region:"east" () in
    let w = geo_reader geo west ~region:"west" () in
    let buf = ref [] in
    let record fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
    List.iter (fun k -> ok "mkdir" (Geo.mkdir e ("/" ^ k))) keys;
    List.iter
      (fun (path, data) ->
        ok "phase1 put" (Geo.put e ~path ~data);
        geo_step clock geo east west)
      phase1;
    Geo.ship_now geo;
    while Clock.now clock < 22_000_000_000L do
      geo_step clock geo east west
    done;
    Geo.promote geo "west";
    List.iter
      (fun (path, data) ->
        ok "phase2 put" (Geo.put w ~path ~data);
        geo_step clock geo east west)
      phase2;
    ok "phase2 setacl" (Geo.setacl w ~path:"/d1" ~entry:visitor_entry);
    while Clock.now clock < 42_000_000_000L do
      geo_step clock geo east west
    done;
    let rec settle what pred n =
      if pred () then
        if n > 30 then Alcotest.failf "%s never settled" what
        else begin
          geo_step clock geo east west;
          settle what pred (n + 1)
        end
    in
    settle "east reconcile"
      (fun () -> Geo.needs_reconcile (Geo.region geo "east"))
      0;
    record "healed: east epoch=%d" (Geo.epoch (Geo.region geo "east"));
    (* Failback: east resumes primacy under a fresh epoch; west is
       fenced and reconciled in turn. *)
    Geo.promote geo "east";
    settle "west reconcile"
      (fun () ->
        Geo.role (Geo.region geo "west") = Geo.Primary
        || Geo.needs_reconcile (Geo.region geo "west"))
      0;
    record "failback: east epoch=%d west epoch=%d"
      (Geo.epoch (Geo.region geo "east"))
      (Geo.epoch (Geo.region geo "west"));
    List.iter
      (fun (path, data) ->
        ok "phase3 put" (Geo.put e ~path ~data);
        geo_step clock geo east west)
      phase3;
    Geo.ship_now geo;
    let rec catch_up n =
      if
        Geo.applied_lsn (Geo.region geo "west")
        < Geo.tip (Geo.region geo "east")
      then
        if n > 30 then Alcotest.fail "west never caught up after failback"
        else begin
          geo_step clock geo east west;
          catch_up (n + 1)
        end
    in
    catch_up 0;
    (* Convergence: every member of both regions reports the same
       subtree digest per key. *)
    let digests =
      List.map
        (fun key ->
          let all =
            List.concat_map
              (fun (rn, w) ->
                List.filter_map
                  (fun m ->
                    match Server.subtree_digest (World.server w m) key with
                    | Ok d -> Some (rn ^ "/" ^ m, d)
                    | Error _ -> None)
                  (World.members w))
              [ ("east", east); ("west", west) ]
          in
          (match all with
          | [] -> Alcotest.failf "no member holds %s" key
          | (first, d) :: rest ->
            List.iter
              (fun (n, d') ->
                Alcotest.(check string)
                  (Printf.sprintf "%s digest: %s = %s" key first n)
                  d d')
              rest);
          (key, snd (List.hd all)))
        keys
    in
    (* ACL verdicts converge too: the phase-2 grant made on west holds
       identically in both regions. *)
    let east_r =
      match World.connect east ~credentials:[ World.issue east "Alice" ] with
      | Ok r -> r
      | Error m -> Alcotest.fail m
    in
    let west_r =
      match World.connect west ~credentials:[ World.issue west "Alice" ] with
      | Ok r -> r
      | Error m -> Alcotest.fail m
    in
    let acl_e = gstr (Router.getacl east_r "/d1") in
    let acl_w = gstr (Router.getacl west_r "/d1") in
    Alcotest.(check string) "ACL text identical across regions" acl_e acl_w;
    Alcotest.(check bool) "phase-2 grant visible after failback" true
      (contains ~sub:"visitor.grid.edu" acl_e);
    List.iter (fun (k, d) -> record "digest %s %s" k d) digests;
    record "acl /d1 %s" acl_e;
    ( String.concat "\n" (List.rev !buf),
      digests,
      acl_e,
      geo_metrics net east west,
      Clock.now clock )
  in
  (* The single-region oracle: same script, same order, no geo layer,
     no faults.  Content digests exclude node-local bookkeeping, so
     they are comparable across deployments. *)
  let oracle () =
    let w = World.create ~staleness_ns:8_000_000_000L () in
    List.iter
      (fun h ->
        match World.add_node w ~host:h with
        | Ok () -> ()
        | Error m -> Alcotest.fail m)
      [ "ea.grid.edu"; "eb.grid.edu" ];
    World.settle w;
    let r =
      match World.connect w ~credentials:[ World.issue w "Alice" ] with
      | Ok r -> r
      | Error m -> Alcotest.fail m
    in
    List.iter (fun k -> ok "oracle mkdir" (Router.mkdir r ("/" ^ k))) keys;
    List.iter
      (fun (path, data) -> ok "oracle put" (Router.put r ~path ~data))
      phase1;
    List.iter
      (fun (path, data) -> ok "oracle put" (Router.put r ~path ~data))
      phase2;
    ok "oracle setacl" (Router.setacl r ~path:"/d1" ~entry:visitor_entry);
    List.iter
      (fun (path, data) -> ok "oracle put" (Router.put r ~path ~data))
      phase3;
    let digests =
      List.map
        (fun key ->
          match Server.subtree_digest (World.server w "ea") key with
          | Ok d -> (key, d)
          | Error e ->
            Alcotest.failf "oracle digest %s: %s" key (Errno.to_string e))
        keys
    in
    (digests, gstr (Router.getacl r "/d1"))
  in
  let t1, d1, a1, m1, c1 = run () in
  let t2, d2, a2, m2, c2 = run () in
  Alcotest.(check string) "two seeded runs: transcript" t1 t2;
  Alcotest.(check string) "two seeded runs: metrics byte-identical" m1 m2;
  Alcotest.(check int64) "two seeded runs: clock" c1 c2;
  let od, oa = oracle () in
  List.iter2
    (fun (k, d) (k', d') ->
      Alcotest.(check string) ("oracle key " ^ k) k k';
      Alcotest.(check string) ("oracle digest " ^ k) d' d)
    d1 od;
  ignore d2;
  Alcotest.(check string) "oracle ACL text" oa a1;
  ignore a2

let suite =
  [
    Alcotest.test_case "workload completes at 10% drop + partition" `Quick
      workload_completes_under_drops;
    Alcotest.test_case "exec exactly-once under loss" `Quick
      exec_exactly_once_under_loss;
    Alcotest.test_case "dedup replays across restart" `Quick
      dedup_replays_same_request_id;
    Alcotest.test_case "dedup journal evicts by age" `Quick
      dedup_journal_evicts_by_age;
    Alcotest.test_case "dedup eviction = full scan, across restart" `Quick
      dedup_eviction_matches_full_scan;
    Alcotest.test_case "restart reauth keeps identity" `Quick
      restart_reauth_keeps_identity;
    Alcotest.test_case "session cap sheds then recovers" `Quick
      session_cap_sheds_then_recovers;
    Alcotest.test_case "catalog eviction + heartbeat recovery" `Quick
      catalog_eviction_and_heartbeat_recovery;
    Alcotest.test_case "two seeded runs byte-identical" `Quick
      deterministic_chaos_run;
    Alcotest.test_case "decoders total under mangling" `Quick (fun () ->
        decoders_total_under_mangling ();
        endpoints_total_under_mangling ());
    Alcotest.test_case "acl holds under corruption" `Quick
      acl_holds_under_corruption;
    Alcotest.test_case "3-node cluster chaos matches oracle, twice" `Quick
      cluster_chaos_matches_oracle;
    Alcotest.test_case "partition-heal repair converges, twice" `Quick
      partition_heal_repair_converges;
    Alcotest.test_case "scale-down races a partition, twice" `Quick
      scale_down_during_partition;
    Alcotest.test_case "flapping node absorbed by breakers" `Quick
      flapping_node_absorbed_by_breakers;
    Alcotest.test_case "thundering herd sheds then recovers" `Quick
      thundering_herd_recovery;
    Alcotest.test_case "geo partition serves in-bound reads, twice" `Quick
      geo_partition_serves_in_bound_reads;
    Alcotest.test_case "geo promotion races the partition, twice" `Quick
      geo_promotion_races_partition;
    Alcotest.test_case "geo heal + failback matches oracle, twice" `Quick
      geo_failback_matches_oracle;
  ]
