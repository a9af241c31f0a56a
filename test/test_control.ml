(* The control plane's overload handling: the circuit-breaker state
   machine (trip, short-circuit, half-open probe, re-close, re-open);
   server admission control (brownout sheds mutations with a
   retry-after hint while reads keep flowing); and the client treating
   shed responses as retryable. *)

module Clock = Idbox_kernel.Clock
module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Metrics = Idbox_kernel.Metrics
module Network = Idbox_net.Network
module Breaker = Idbox_net.Breaker
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Protocol = Idbox_chirp.Protocol
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let ok_s ctx = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" ctx m

(* --- retry-after hints on the wire ----------------------------------- *)

let shed_hint_round_trip () =
  let msg = Protocol.shed_message ~retry_after_ns:100_000L "brownout" in
  Alcotest.(check (option int64))
    "hint survives the message" (Some 100_000L)
    (Protocol.retry_after_of_message msg);
  Alcotest.(check bool)
    "reason survives too" true
    (String.length msg >= 8 && String.equal (String.sub msg 0 8) "brownout");
  Alcotest.(check (option int64))
    "no hint in a plain message" None
    (Protocol.retry_after_of_message "session table full");
  Alcotest.(check (option int64))
    "garbage after the tag is not a hint" None
    (Protocol.retry_after_of_message "x; retry_after_ns=abc")

(* --- the breaker state machine --------------------------------------- *)

let breaker_state_machine () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let transitions = ref [] in
  let b =
    Breaker.create ~threshold:3 ~reset_ns:1_000_000L ~prefix:"t.breaker"
      ~on_transition:(fun subject st ->
        transitions := (subject ^ ":" ^ Breaker.state_name st) :: !transitions)
      ~clock ~metrics "beta"
  in
  let count name = Metrics.counter_value_of metrics ("t.breaker." ^ name) in
  (* Closed: failures below threshold do not trip, a success resets the
     consecutive count. *)
  Alcotest.(check bool) "closed allows" true (Breaker.allow b);
  Breaker.failure ~errno:Errno.ETIMEDOUT b;
  Breaker.failure ~errno:Errno.ETIMEDOUT b;
  Breaker.success b;
  Breaker.failure ~errno:Errno.ETIMEDOUT b;
  Breaker.failure ~errno:Errno.ETIMEDOUT b;
  Alcotest.(check bool) "still closed after reset" true (Breaker.allow b);
  (* Third consecutive failure trips it open. *)
  Breaker.failure ~errno:Errno.ECONNRESET b;
  Alcotest.(check int) "tripped once" 1 (Breaker.trips b);
  Alcotest.(check bool) "open short-circuits" false (Breaker.allow b);
  Alcotest.(check bool) "and again" false (Breaker.allow b);
  Alcotest.(check int) "short circuits counted" 2 (count "short_circuit");
  Alcotest.(check string) "last errno surfaces" "ECONNRESET"
    (Errno.to_string (Breaker.last_errno b));
  (* One ns short of the reset window: still short-circuiting. *)
  Clock.advance clock 999_999L;
  Alcotest.(check bool) "window not yet elapsed" false (Breaker.allow b);
  (* Window elapsed: half-open, and the first probe is granted to this
     very request; the budget (1) is then spent. *)
  Clock.advance clock 1L;
  Alcotest.(check bool) "half-open grants the probe" true (Breaker.allow b);
  Alcotest.(check bool) "probe budget spent" false (Breaker.allow b);
  (* The probe fails: straight back to open with a fresh window. *)
  Breaker.failure ~errno:Errno.ETIMEDOUT b;
  Alcotest.(check int) "re-tripped" 2 (Breaker.trips b);
  Alcotest.(check bool) "open again" false (Breaker.allow b);
  (* Next window's probe succeeds: closed, history forgotten. *)
  Clock.advance clock 1_000_000L;
  Alcotest.(check bool) "second probe granted" true (Breaker.allow b);
  Breaker.success b;
  Alcotest.(check bool) "closed again" true (Breaker.allow b);
  Breaker.failure ~errno:Errno.ETIMEDOUT b;
  Breaker.failure ~errno:Errno.ETIMEDOUT b;
  Alcotest.(check bool) "history was forgotten" true (Breaker.allow b);
  Alcotest.(check int) "opens counted" 2 (count "open");
  Alcotest.(check int) "closes counted" 1 (count "close");
  Alcotest.(check int) "probes counted" 2 (count "probe");
  Alcotest.(check bool) "transitions observed" true
    (List.mem "beta:half_open" !transitions && List.mem "beta:open" !transitions
     && List.mem "beta:closed" !transitions)

(* --- server admission control ---------------------------------------- *)

let addr = "alpha.grid.edu:9094"

type sworld = {
  sw_net : Network.t;
  sw_server : Server.t;
  sw_ca : Ca.t;
  sw_metrics : Metrics.t;  (* the network's: client-side counters *)
  sw_kmetrics : Metrics.t;  (* the kernel's: server-side counters *)
}

let make_server ?max_parked ?flush_interval_ns () =
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  let kernel = Kernel.create ~clock () in
  let owner = ok_s "account" (Account.add (Kernel.accounts kernel) "chirpuser") in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"UnivNowhere CA" in
  let root_acl =
    Acl.of_entries
      [ Entry.make ~pattern:"globus:/O=UnivNowhere/*"
          (Rights.of_string_exn "rwlaxd") ]
  in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let server =
    ok "server"
      (Server.create ~kernel ~net ~addr ~owner_uid:owner.Account.uid
         ~export:"/tmp/export" ~acceptor ~root_acl ?max_parked
         ?flush_interval_ns ())
  in
  { sw_net = net; sw_server = server; sw_ca = ca;
    sw_metrics = Network.metrics net; sw_kmetrics = Kernel.metrics kernel }

let connect_fred sw =
  let cert =
    Ca.issue sw.sw_ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred")
  in
  ok_s "connect"
    (Client.connect sw.sw_net ~addr ~credentials:[ Credential.Gsi cert ])

let pump_until sw pred =
  let rec go guard =
    if pred () then ()
    else if guard = 0 then Alcotest.fail "pump: no progress"
    else if Network.step sw.sw_net then go (guard - 1)
    else begin
      List.iter
        (fun ctr ->
          let v = Metrics.counter_value ctr in
          if v > 0 then
            Printf.eprintf "  %s = %d\n" (Metrics.counter_name ctr) v)
        (Metrics.counters sw.sw_metrics);
      Printf.eprintf "  parked=%d brownout=%b\n"
        (Server.parked_ops sw.sw_server)
        (Server.brownout sw.sw_server);
      Alcotest.fail "pump: network idle before condition held"
    end
  in
  go 100_000

(* Flood a server with a long flush window past its queue watermarks:
   mutations beyond the brownout threshold are shed with EAGAIN and a
   retry-after hint, reads are served throughout, and draining the
   queue at the group-commit tick exits brownout. *)
let brownout_sheds_mutations_serves_reads () =
  let sw = make_server ~max_parked:8 ~flush_interval_ns:500_000_000L () in
  let c = connect_fred sw in
  let count name = Metrics.counter_value_of sw.sw_kmetrics name in
  let submit op =
    Network.submit sw.sw_net ~src:"client" ~timeout_ns:2_000_000_000L ~addr
      (Client.prepare c op)
  in
  let toks =
    List.init 12 (fun i ->
        submit (Protocol.Put { path = Printf.sprintf "/f%d" i; data = "x" }))
  in
  (* Deliver the flood (the flush tick is far away at 500 ms). *)
  pump_until sw (fun () -> count "chirp.shed.mutation" >= 6);
  Alcotest.(check int) "queue filled to the brownout watermark" 6
    (Server.parked_ops sw.sw_server);
  Alcotest.(check bool) "server is in brownout" true
    (Server.brownout sw.sw_server);
  Alcotest.(check int) "entered brownout once" 1 (count "chirp.brownout.enter");
  (* A read while browned out: served, not shed. *)
  let rd = submit (Protocol.Readdir "/") in
  pump_until sw (fun () -> Network.poll rd <> None);
  (match Network.poll rd with
   | Some (Ok text) ->
     (match Client.interpret text with
      | Ok (Protocol.R_names _) -> ()
      | Ok _ -> Alcotest.fail "readdir: unexpected response"
      | Error e -> Alcotest.failf "readdir shed or failed: %s" (Errno.to_string e))
   | _ -> Alcotest.fail "readdir got no reply");
  (* Shed responses carry EAGAIN and the retry-after hint
     (2 x flush interval). *)
  let sheds =
    List.filter_map
      (fun tok ->
        match Network.poll tok with
        | Some (Ok text) ->
          (match Protocol.decode_response text with
           | Ok (Protocol.R_error (Errno.EAGAIN, msg)) -> Some msg
           | _ -> None)
        | _ -> None)
      toks
  in
  Alcotest.(check int) "six mutations shed" 6 (List.length sheds);
  List.iter
    (fun msg ->
      Alcotest.(check (option int64))
        "shed response hints retry-after" (Some 1_000_000_000L)
        (Protocol.retry_after_of_message msg))
    sheds;
  (* The flush tick drains the parked six and brownout ends. *)
  pump_until sw (fun () ->
      List.for_all (fun tok -> Network.poll tok <> None) toks);
  Alcotest.(check int) "queue drained" 0 (Server.parked_ops sw.sw_server);
  Alcotest.(check bool) "brownout exited" false (Server.brownout sw.sw_server);
  Alcotest.(check int) "exit counted" 1 (count "chirp.brownout.exit");
  let served =
    List.filter
      (fun tok ->
        match Network.poll tok with
        | Some (Ok text) ->
          (match Client.interpret text with Ok _ -> true | Error _ -> false)
        | _ -> false)
      toks
  in
  Alcotest.(check int) "the parked six were acknowledged" 6
    (List.length served)

(* The client treats a shed response as retryable: it waits out the
   hint and the retry lands after the drain — counted separately from
   transport-fault retries. *)
let client_retries_shed () =
  let sw = make_server ~max_parked:8 ~flush_interval_ns:500_000_000L () in
  let c = connect_fred sw in
  let scount name = Metrics.counter_value_of sw.sw_kmetrics name in
  let count name = Metrics.counter_value_of sw.sw_metrics name in
  (* Fill the queue to the watermark with raw submissions. *)
  let toks =
    List.init 7 (fun i ->
        Network.submit sw.sw_net ~src:"flood" ~timeout_ns:2_000_000_000L ~addr
          (Client.prepare c
             (Protocol.Put { path = Printf.sprintf "/f%d" i; data = "x" })))
  in
  pump_until sw (fun () -> scount "chirp.shed.mutation" >= 1);
  Alcotest.(check bool) "browned out" true (Server.brownout sw.sw_server);
  (* A well-behaved client call through the shed-and-retry path. *)
  ok "put" (Client.put c ~path:"/r" ~data:"retried");
  Alcotest.(check bool) "shed retries counted distinctly" true
    (count "chirp.retry.shed" >= 1);
  Alcotest.(check string) "the retried mutation landed" "retried"
    (ok "get" (Client.get c "/r"));
  ignore toks

let suite =
  [
    Alcotest.test_case "retry-after hints round-trip" `Quick
      shed_hint_round_trip;
    Alcotest.test_case "breaker state machine" `Quick breaker_state_machine;
    Alcotest.test_case "brownout sheds mutations, serves reads" `Quick
      brownout_sheds_mutations_serves_reads;
    Alcotest.test_case "client retries shed mutations" `Quick
      client_retries_shed;
  ]
