(* WAL suite: the stable-storage device under seeded crash damage, and
   the server-level durability contract built on it — an acknowledged
   mutation survives any crash, and a torn tail is never applied. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Wal = Idbox_chirp.Wal
module Wire = Idbox_chirp.Wire
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Protocol = Idbox_chirp.Protocol
module Principal = Idbox_identity.Principal
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

(* --- device-level ----------------------------------------------------- *)

let roundtrip () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "alpha"; "beta"; "gamma" ];
  Wal.sync w;
  Alcotest.(check int) "records" 3 (Wal.records w);
  let r = Wal.recover w in
  Alcotest.(check (list string)) "payloads" [ "alpha"; "beta"; "gamma" ]
    r.Wal.rc_records;
  Alcotest.(check int) "nothing torn" 0 r.Wal.rc_torn_bytes;
  Alcotest.(check bool) "no checkpoint" true (r.Wal.rc_checkpoint = None);
  (* The device continues from the valid prefix. *)
  Wal.append w "delta";
  Wal.sync w;
  Alcotest.(check (list string)) "extended"
    [ "alpha"; "beta"; "gamma"; "delta" ]
    (Wal.recover w).Wal.rc_records

let checkpoint_truncates () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "a"; "b" ];
  Wal.sync w;
  Wal.checkpoint w "IMAGE";
  Alcotest.(check int) "log truncated" 0 (Wal.records w);
  Alcotest.(check int) "appends keep counting" 2 (Wal.appends w);
  Wal.append w "c";
  Wal.sync w;
  let r = Wal.recover w in
  (match r.Wal.rc_checkpoint with
  | Some img -> Alcotest.(check string) "image" "IMAGE" img
  | None -> Alcotest.fail "checkpoint lost");
  Alcotest.(check (list string)) "post-checkpoint records" [ "c" ]
    r.Wal.rc_records

(* Synced prefix [a; b], unsynced tail [c; d]: whatever the damage does,
   recovery returns a prefix of the appended sequence that includes at
   least the synced records, byte-identical. *)
let crash_respects_sync_barrier () =
  List.iter
    (fun seed ->
      let profile =
        Fault.storage_profile ~torn_write:0.7 ~lose_tail:0.7 ~flip:0.5 ()
      in
      let w = Wal.create ~seed ~profile () in
      let appended = [ "rec-a"; "rec-b"; "rec-c"; "rec-d" ] in
      List.iter (Wal.append w) [ "rec-a"; "rec-b" ];
      Wal.sync w;
      List.iter (Wal.append w) [ "rec-c"; "rec-d" ];
      Wal.crash w;
      let r = Wal.recover w in
      let got = r.Wal.rc_records in
      let n = List.length got in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: synced records survive" seed)
        true (n >= 2);
      List.iteri
        (fun i payload ->
          Alcotest.(check string)
            (Printf.sprintf "seed %Ld: record %d is a clean prefix" seed i)
            (List.nth appended i) payload)
        got)
    [ 1L; 2L; 3L; 7L; 42L; 1337L ]

(* A fully synced log can still grow a torn fragment of an in-flight
   write; recovery discards it by checksum and loses nothing. *)
let phantom_fragment_discarded () =
  let profile = Fault.storage_profile ~torn_write:1.0 () in
  let w = Wal.create ~seed:5L ~profile () in
  List.iter (Wal.append w) [ "x"; "y" ];
  Wal.sync w;
  let clean_bytes = Wal.log_bytes w in
  Wal.crash w;
  Alcotest.(check bool) "fragment appended" true (Wal.log_bytes w > clean_bytes);
  let r = Wal.recover w in
  Alcotest.(check (list string)) "data intact" [ "x"; "y" ] r.Wal.rc_records;
  Alcotest.(check bool) "tear detected" true (r.Wal.rc_torn_bytes > 0);
  Alcotest.(check int) "counted once" 1 r.Wal.rc_torn_records;
  Alcotest.(check int) "log truncated back" clean_bytes (Wal.log_bytes w)

(* Bit corruption in the unsynced suffix: the checksum rejects the
   damaged record, and parsing stops there rather than resynchronising
   onto garbage. *)
let corrupt_record_rejected () =
  List.iter
    (fun seed ->
      let profile = Fault.storage_profile ~flip:1.0 () in
      let w = Wal.create ~seed ~profile () in
      Wal.append w "durable";
      Wal.sync w;
      Wal.append w (String.make 64 'q');
      Wal.crash w;
      let r = Wal.recover w in
      (match r.Wal.rc_records with
      | "durable" :: rest ->
        List.iter
          (fun p ->
            Alcotest.(check string)
              (Printf.sprintf "seed %Ld: accepted record is genuine" seed)
              (String.make 64 'q') p)
          rest
      | _ -> Alcotest.failf "seed %Ld: synced record lost" seed);
      (* Either the record survived intact (flip hit only its future) or
         it was discarded whole — never accepted damaged. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: prefix of appends" seed)
        true
        (List.length r.Wal.rc_records <= 2))
    [ 11L; 12L; 13L ]

(* Determinism: the same seed produces byte-identical damage and
   byte-identical recovery, twice. *)
let crash_is_deterministic () =
  let run () =
    let profile =
      Fault.storage_profile ~torn_write:0.5 ~lose_tail:0.5 ~flip:0.5 ()
    in
    let w = Wal.create ~seed:77L ~profile () in
    for i = 1 to 10 do
      Wal.append w (Printf.sprintf "record-%d-%s" i (String.make 32 'p'));
      if i mod 3 = 0 then Wal.sync w
    done;
    Wal.crash w;
    let r = Wal.recover w in
    (String.concat "|" r.Wal.rc_records, r.Wal.rc_torn_bytes, Wal.log_bytes w)
  in
  let a1, t1, b1 = run () in
  let a2, t2, b2 = run () in
  Alcotest.(check string) "records identical" a1 a2;
  Alcotest.(check int) "torn bytes identical" t1 t2;
  Alcotest.(check int) "log bytes identical" b1 b2

(* --- server-level ----------------------------------------------------- *)

let server_addr = "wal.nowhere.edu:9094"

let make_server ?wal ?checkpoint_every ?flush_interval_ns () =
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
      ]
  in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let server =
    match
      Server.create ~kernel ~net ~addr:server_addr ~owner_uid:owner.Account.uid
        ~export:"/tmp/export" ~acceptor ~root_acl ?wal ?checkpoint_every
        ?flush_interval_ns ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  (server, net, kernel, ca)

let fred_cert ca = Ca.issue ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred")

let connect net ca =
  match
    Client.connect net ~addr:server_addr
      ~credentials:[ Credential.Gsi (fred_cert ca) ]
  with
  | Ok c -> c
  | Error m -> Alcotest.fail m

(* The durability acceptance property, across seeds: every mutation the
   server ACKNOWLEDGED before the crash reads back after recovery, and
   nothing that was never written appears.  The storage profile is
   hostile (tears, lost tails, bit flips), but damage is confined to
   unacknowledged state by the sync-before-reply rule. *)
let acked_mutations_survive_crash () =
  List.iter
    (fun seed ->
      let profile =
        Fault.storage_profile ~torn_write:0.8 ~lose_tail:0.8 ~flip:0.5 ()
      in
      let wal = Wal.create ~seed ~profile () in
      let server, net, kernel, ca = make_server ~wal () in
      let c = connect net ca in
      ok "mkdir" (Client.mkdir c "/work");
      for i = 1 to 6 do
        ok "put"
          (Client.put c
             ~path:(Printf.sprintf "/work/f%d" i)
             ~data:(Printf.sprintf "payload-%d-%Ld" i seed))
      done;
      Server.crash server;
      Server.restart server;
      let c = connect net ca in
      for i = 1 to 6 do
        Alcotest.(check string)
          (Printf.sprintf "seed %Ld: f%d survives" seed i)
          (Printf.sprintf "payload-%d-%Ld" i seed)
          (ok "get" (Client.get c (Printf.sprintf "/work/f%d" i)))
      done;
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld: no phantom files" seed)
        [ "f1"; "f2"; "f3"; "f4"; "f5"; "f6" ]
        (List.sort String.compare (ok "readdir" (Client.readdir c "/work")));
      let m name = Metrics.counter_value_of (Kernel.metrics kernel) name in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: recovery accounted" seed)
        true
        (m "chirp.recovery.checkpoint_loads" > 0
        && m "chirp.recovery.replayed" >= 0))
    [ 2005L; 2006L; 2007L ]

(* Checkpoints bound replay: force a checkpoint, then only the records
   logged after it replay on recovery. *)
let checkpoint_bounds_replay () =
  let server, net, kernel, ca = make_server ~checkpoint_every:10_000 () in
  let c = connect net ca in
  ok "mkdir" (Client.mkdir c "/work");
  for i = 1 to 8 do
    ok "put" (Client.put c ~path:(Printf.sprintf "/work/a%d" i) ~data:"x")
  done;
  ok "checkpoint" (Server.checkpoint_now server);
  Alcotest.(check int) "log truncated" 0 (Server.wal_records server);
  for i = 1 to 3 do
    ok "put" (Client.put c ~path:(Printf.sprintf "/work/b%d" i) ~data:"y")
  done;
  Server.crash server;
  Server.restart server;
  let m name = Metrics.counter_value_of (Kernel.metrics kernel) name in
  (* Three puts after the checkpoint: one "op" + one "done" record each.
     The eight pre-checkpoint puts come back from the image alone. *)
  Alcotest.(check int) "replayed only the tail" 3 (m "chirp.recovery.replayed");
  let c = connect net ca in
  Alcotest.(check string) "image data" "x" (ok "get" (Client.get c "/work/a8"));
  Alcotest.(check string) "replayed data" "y" (ok "get" (Client.get c "/work/b3"))

(* Un-synced state really dies: a file written behind the WAL's back
   (directly into the export, never logged) does not survive a crash —
   the restart-semantics fix this suite exists to pin down. *)
let unlogged_state_dies () =
  let server, net, kernel, ca = make_server () in
  let c = connect net ca in
  ok "mkdir" (Client.mkdir c "/work");
  ok "put" (Client.put c ~path:"/work/logged" ~data:"stays");
  (* Sneak a file into the export behind the server's back: no WAL
     record, no checkpoint — exactly the state the old restart let
     survive by fiat. *)
  ok "sneak"
    (Idbox_vfs.Fs.write_file (Kernel.fs kernel)
       ~uid:(Server.owner_uid server) "/tmp/export/work/sneak" "dies");
  Alcotest.(check (list string)) "sneak visible before crash"
    [ "logged"; "sneak" ]
    (List.sort String.compare (ok "readdir" (Client.readdir c "/work")));
  Server.crash server;
  Server.restart server;
  let c = connect net ca in
  Alcotest.(check string) "logged file survives" "stays"
    (ok "get" (Client.get c "/work/logged"));
  Alcotest.(check (list string)) "nothing else" [ "logged" ]
    (List.sort String.compare (ok "readdir" (Client.readdir c "/work")))

(* A record can pass its checksum and still not decode (a writer bug,
   or a format the recovering build does not know).  Recovery skips it,
   counts it in [chirp.recovery.undecodable], and replays the rest; so
   does a checkpoint entry that does not decode. *)
let undecodable_records_counted () =
  let wal = Wal.create () in
  let server, net, kernel, ca = make_server ~wal ~checkpoint_every:10_000 () in
  let c = connect net ca in
  ok "mkdir" (Client.mkdir c "/work");
  for i = 1 to 3 do
    ok "put" (Client.put c ~path:(Printf.sprintf "/work/f%d" i) ~data:(string_of_int i))
  done;
  Wal.append wal "\000 not a wire record";
  Wal.sync wal;
  ok "put" (Client.put c ~path:"/work/f4" ~data:"4");
  Server.crash server;
  Server.restart server;
  let m name = Metrics.counter_value_of (Kernel.metrics kernel) name in
  Alcotest.(check int) "one undecodable record" 1 (m "chirp.recovery.undecodable");
  let files () =
    let c = connect net ca in
    Alcotest.(check (list string)) "every file back" [ "f1"; "f2"; "f3"; "f4" ]
      (List.sort String.compare (ok "readdir" (Client.readdir c "/work")));
    for i = 1 to 4 do
      Alcotest.(check string) "intact" (string_of_int i)
        (ok "get" (Client.get c (Printf.sprintf "/work/f%d" i)))
    done
  in
  files ();
  (* The same for a checkpoint image with one entry it cannot decode. *)
  ok "checkpoint" (Server.checkpoint_now server);
  (match Option.map Wire.decode (Wal.checkpoint_image wal) with
   | Some (Ok fields) -> Wal.checkpoint wal (Wire.encode (fields @ [ "\000 not an entry" ]))
   | Some (Error _) | None -> Alcotest.fail "no checkpoint image");
  Server.crash server;
  Server.restart server;
  Alcotest.(check int) "and one undecodable entry" 2 (m "chirp.recovery.undecodable");
  files ()


(* Every origin of a logged mutation is durable before it answers.  The
   two server-to-server origins are called the way the cluster layer
   calls them: a peer forward ([Replica]) and a geo shipment ([Geo],
   which answers whether the apply was fresh). *)
let forward server ~identity op =
  ignore (Server.apply server Server.Peer ~identity op)

let ship server ~identity ~req_id op =
  match Server.apply server (Server.Shipped req_id) ~identity op with
  | Server.Applied _ -> true
  | Server.Replayed _ -> false

(* A client request carrying an explicit request id, over the network:
   with a flush window the reply leaves only when the batch flushes. *)
let client_op net ca ~req_id op =
  let call payload =
    match Network.call net ~addr:server_addr payload with
    | Ok reply -> reply
    | Error e -> Alcotest.failf "call: %s" (Errno.to_string e)
  in
  let token =
    match
      Protocol.decode_response
        (call
           (Protocol.encode_request
              (Protocol.Auth [ Credential.Gsi (fred_cert ca) ])))
    with
    | Ok (Protocol.R_auth { token; _ }) -> token
    | Ok _ | Error _ -> Alcotest.fail "auth refused"
  in
  call (Protocol.encode_request (Protocol.Op { token; req_id; op }))

(* For each origin, as soon as the call returns: every record is synced,
   and the log holds exactly [op] (a forward) or [op; done] (a shipment,
   a client op with a request id).  A crash on a device that damages
   whatever it can then loses nothing: the effect is back after
   recovery, and a repeat of the request id is a dedup hit. *)
let origins_durable_before_answer () =
  let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred" in
  let case ~flush_interval_ns origin =
    let name =
      match origin with
      | `Peer -> "peer"
      | `Shipped -> "shipped"
      | `Client -> Printf.sprintf "client-%Ld" flush_interval_ns
    in
    let profile =
      Fault.storage_profile ~torn_write:1.0 ~lose_tail:1.0 ~flip:1.0 ()
    in
    let wal = Wal.create ~seed:3L ~profile () in
    let server, net, kernel, ca =
      make_server ~wal ~checkpoint_every:10_000 ~flush_interval_ns ()
    in
    let m key = Metrics.counter_value_of (Kernel.metrics kernel) key in
    ok "mkdir" (Client.mkdir (connect net ca) "/work");
    ok "checkpoint" (Server.checkpoint_now server);
    let path = "/work/" ^ name in
    let op = Protocol.Put { path; data = name } in
    let req_id = match origin with `Client -> "fred#1" | `Peer | `Shipped -> "geo:7" in
    let expected =
      match origin with
      | `Peer ->
        forward server ~identity:fred op;
        [ "op" ]
      | `Shipped ->
        Alcotest.(check bool) (name ^ ": fresh apply") true
          (ship server ~identity:fred ~req_id op);
        [ "op"; "done" ]
      | `Client ->
        Alcotest.(check bool) (name ^ ": answered ok") true
          (Protocol.decode_response (client_op net ca ~req_id op)
          = Ok Protocol.R_ok);
        [ "op"; "done" ]
    in
    Alcotest.(check int) (name ^ ": every record synced") (Wal.records wal)
      (Wal.synced_records wal);
    let records = (Wal.recover wal).Wal.rc_records in
    Alcotest.(check (list string)) (name ^ ": record sequence") expected
      (List.map
         (fun r -> match Wire.decode r with Ok (tag :: _) -> tag | _ -> "?")
         records);
    Alcotest.(check string) (name ^ ": the op record") (List.hd records)
      (Wire.encode
         [ "op"; Principal.to_string fred; Protocol.operation_to_wire op ]);
    (match records with
     | [ _; done_ ] ->
       (match Wire.decode done_ with
        | Ok [ "done"; rid; _; _ ] ->
          Alcotest.(check string) (name ^ ": journal key") req_id rid
        | _ -> Alcotest.failf "%s: malformed done record" name)
     | _ -> ());
    Server.crash server;
    Server.restart server;
    Alcotest.(check string) (name ^ ": effect survives") name
      (ok "get" (Client.get (connect net ca) path));
    match origin with
    | `Peer -> ()
    | `Shipped ->
      Alcotest.(check bool) (name ^ ": re-shipped LSN replays") false
        (ship server ~identity:fred ~req_id op);
      Alcotest.(check int) (name ^ ": dedup hit") 1 (m "chirp.geo.dedup_hit")
    | `Client ->
      Alcotest.(check bool) (name ^ ": retry answered ok") true
        (Protocol.decode_response (client_op net ca ~req_id op)
        = Ok Protocol.R_ok);
      Alcotest.(check int) (name ^ ": dedup hit") 1 (m "chirp.dedup_hit")
  in
  case ~flush_interval_ns:0L `Peer;
  case ~flush_interval_ns:0L `Shipped;
  case ~flush_interval_ns:0L `Client;
  case ~flush_interval_ns:50_000L `Client

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick roundtrip;
    Alcotest.test_case "checkpoint truncates" `Quick checkpoint_truncates;
    Alcotest.test_case "crash respects sync barrier" `Quick
      crash_respects_sync_barrier;
    Alcotest.test_case "phantom fragment discarded" `Quick
      phantom_fragment_discarded;
    Alcotest.test_case "corrupt record rejected" `Quick corrupt_record_rejected;
    Alcotest.test_case "crash is deterministic" `Quick crash_is_deterministic;
    Alcotest.test_case "acked mutations survive crash (3 seeds)" `Quick
      acked_mutations_survive_crash;
    Alcotest.test_case "checkpoint bounds replay" `Quick checkpoint_bounds_replay;
    Alcotest.test_case "unlogged state dies" `Quick unlogged_state_dies;
    Alcotest.test_case "undecodable records counted" `Quick undecodable_records_counted;
    Alcotest.test_case "every origin durable before it answers" `Quick
      origins_durable_before_answer;
  ]
