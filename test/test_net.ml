module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Errno = Idbox_vfs.Errno

let fresh ?latency_us ?bandwidth_mbps () =
  let clock = Clock.create () in
  (clock, Network.create ~clock ?latency_us ?bandwidth_mbps ())

let echo payload = "echo:" ^ payload

let call_roundtrip () =
  let _, net = fresh () in
  Network.listen net ~addr:"host:1" echo;
  (match Network.call net ~addr:"host:1" "hello" with
   | Ok "echo:hello" -> ()
   | Ok other -> Alcotest.failf "got %S" other
   | Error e -> Alcotest.fail (Errno.to_string e))

let connection_refused () =
  let _, net = fresh () in
  match Network.call net ~addr:"nobody:9" "x" with
  | Error Errno.ECONNREFUSED -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected ECONNREFUSED"

let unlisten_stops_service () =
  let _, net = fresh () in
  Network.listen net ~addr:"a:1" echo;
  Network.unlisten net ~addr:"a:1";
  match Network.call net ~addr:"a:1" "x" with
  | Error Errno.ECONNREFUSED -> ()
  | Ok _ | Error _ -> Alcotest.fail "unlisten ignored"

let latency_charged_per_direction () =
  let clock, net = fresh ~latency_us:100. ~bandwidth_mbps:100. () in
  Network.listen net ~addr:"a:1" (fun _ -> "");
  let t0 = Clock.now clock in
  ignore (Network.call net ~addr:"a:1" "");
  let elapsed = Int64.sub (Clock.now clock) t0 in
  (* Two empty transfers: exactly two latencies. *)
  Alcotest.(check int64) "2x latency" 200_000L elapsed

let bandwidth_charged_per_byte () =
  let clock, net = fresh ~latency_us:0. ~bandwidth_mbps:8. () in
  (* 8 Mbit/s = 1 byte per microsecond. *)
  Network.listen net ~addr:"a:1" (fun _ -> "");
  let t0 = Clock.now clock in
  ignore (Network.call net ~addr:"a:1" (String.make 1000 'x'));
  let elapsed = Int64.sub (Clock.now clock) t0 in
  Alcotest.(check int64) "1000 bytes = 1ms" 1_000_000L elapsed

let stats_accumulate () =
  let _, net = fresh () in
  Network.listen net ~addr:"a:1" echo;
  ignore (Network.call net ~addr:"a:1" "12345");
  ignore (Network.call net ~addr:"a:1" "1");
  (match Network.stats net ~addr:"a:1" with
   | Some s ->
     Alcotest.(check int) "calls" 2 s.Network.calls;
     Alcotest.(check int) "bytes in" 6 s.Network.bytes_in;
     Alcotest.(check int) "bytes out" 16 s.Network.bytes_out
   | None -> Alcotest.fail "no stats");
  Alcotest.(check int) "messages" 4 (Network.total_messages net);
  Alcotest.(check int) "total bytes" 22 (Network.total_bytes net)

let addresses_sorted () =
  let _, net = fresh () in
  Network.listen net ~addr:"b:2" echo;
  Network.listen net ~addr:"a:1" echo;
  Alcotest.(check (list string)) "sorted" [ "a:1"; "b:2" ] (Network.addresses net)

(* A handler that raises must not take the caller down with it: the
   network contains the exception, charges the exchange, and reports a
   wire-level reset. *)
let raising_handler_becomes_reset () =
  let clock, net = fresh ~latency_us:100. ~bandwidth_mbps:100. () in
  Network.listen net ~addr:"a:1" (fun _ -> failwith "handler bug");
  let t0 = Clock.now clock in
  (match Network.call net ~addr:"a:1" "boom" with
   | Error Errno.ECONNRESET -> ()
   | Ok _ -> Alcotest.fail "raising handler returned a response"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  Alcotest.(check bool) "time charged" true (Clock.now clock > t0);
  Alcotest.(check int) "net.reset counted" 1
    (Metrics.counter_value_of (Network.metrics net) "net.reset");
  (* The fabric survives: the next call to a healthy endpoint works. *)
  Network.listen net ~addr:"b:1" echo;
  match Network.call net ~addr:"b:1" "hi" with
  | Ok "echo:hi" -> ()
  | _ -> Alcotest.fail "fabric broken after handler crash"

let lossy_run net =
  Network.listen net ~addr:"a:1" echo;
  List.init 60 (fun i ->
      match Network.call net ~addr:"a:1" (string_of_int i) with
      | Ok _ -> true
      | Error _ -> false)

let drops_deterministic_from_seed () =
  let mk () =
    let _, net = fresh () in
    Network.set_fault_plan net
      (Fault.plan ~seed:42L ~default_profile:(Fault.profile ~drop:0.3 ()) ());
    net
  in
  let net1 = mk () and net2 = mk () in
  let r1 = lossy_run net1 and r2 = lossy_run net2 in
  Alcotest.(check (list bool)) "same seed, same fate" r1 r2;
  Alcotest.(check bool) "some drops" true (List.mem false r1);
  Alcotest.(check bool) "some successes" true (List.mem true r1);
  Alcotest.(check int) "drops counted" (List.length (List.filter not r1))
    (Metrics.counter_value_of (Network.metrics net1) "net.drop");
  (* The per-endpoint counter mirrors the global one. *)
  Alcotest.(check int) "per-endpoint drops"
    (Metrics.counter_value_of (Network.metrics net1) "net.drop")
    (Metrics.counter_value_of (Network.metrics net1) "net.drop.a:1")

let crash_then_restart () =
  let _, net = fresh () in
  Network.listen net ~addr:"a:1" echo;
  Network.crash net ~addr:"a:1";
  Alcotest.(check bool) "down" false (Network.is_up net ~addr:"a:1");
  (match Network.call net ~addr:"a:1" "x" with
   | Error Errno.ECONNREFUSED -> ()
   | _ -> Alcotest.fail "crashed endpoint answered");
  Network.restart net ~addr:"a:1";
  Alcotest.(check bool) "up" true (Network.is_up net ~addr:"a:1");
  match Network.call net ~addr:"a:1" "x" with
  | Ok "echo:x" -> ()
  | _ -> Alcotest.fail "restarted endpoint dead"

(* Hedged failover: an unreachable first address is skipped and counted
   in [net.hedge]; the first answer ends the sweep, even an
   application-level error, so the third address is never called. *)
let call_any_hedges_then_stops () =
  let _, net = fresh () in
  Network.listen net ~addr:"b:1" (fun _ -> "error:EACCES");
  Network.listen net ~addr:"c:1" echo;
  Network.listen net ~addr:"a:1" echo;
  Network.crash net ~addr:"a:1";
  let calls addr =
    match Network.stats net ~addr with Some s -> s.Network.calls | None -> 0
  in
  (match Network.call_any net ~addrs:[ "a:1"; "b:1"; "c:1" ] "x" with
   | Ok (addr, reply) ->
     Alcotest.(check string) "answered by the live address" "b:1" addr;
     Alcotest.(check string) "its verdict, not a failover" "error:EACCES" reply
   | Error e -> Alcotest.fail (Errno.to_string e));
  Alcotest.(check int) "unreachable address counted" 1
    (Metrics.counter_value_of (Network.metrics net) "net.hedge");
  Alcotest.(check int) "sweep ended at the answer" 0 (calls "c:1");
  (* No address answers: the last transport error; none given: no route. *)
  (match Network.call_any net ~addrs:[ "a:1"; "nobody:9" ] "x" with
   | Error Errno.ECONNREFUSED -> ()
   | _ -> Alcotest.fail "expected ECONNREFUSED");
  match Network.call_any net ~addrs:[] "x" with
  | Error Errno.EHOSTUNREACH -> ()
  | _ -> Alcotest.fail "expected EHOSTUNREACH"

let partition_cuts_then_heals () =
  let clock, net = fresh () in
  Network.listen net ~addr:"a:1" echo;
  Network.set_fault_plan net
    (Fault.plan
       ~partitions:
         [ Fault.window ~from_ns:0L ~until_ns:10_000_000_000L
             ~between:("client", "a") ]
       ());
  (match Network.call net ~addr:"a:1" "x" with
   | Error Errno.ETIMEDOUT -> ()
   | _ -> Alcotest.fail "partitioned call went through");
  (* An unrelated destination is reachable during the partition. *)
  Network.listen net ~addr:"other:1" echo;
  (match Network.call net ~addr:"other:1" "x" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "bystander cut: %s" (Errno.to_string e));
  Clock.advance clock 10_000_000_000L;
  match Network.call net ~addr:"a:1" "x" with
  | Ok "echo:x" -> ()
  | _ -> Alcotest.fail "healed partition still cut"

(* Every exchange arms a timeout that stays queued, already dead, until
   the clock passes it; the queue must not keep that history. *)
let dead_timeouts_swept () =
  let _, net = fresh () in
  Network.listen net ~addr:"a:1" echo;
  for i = 1 to 10_000 do
    let tok = Network.submit net ~addr:"a:1" (string_of_int i) in
    match Network.await net tok with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "exchange %d: %s" i (Errno.to_string e)
  done;
  let pending = Network.pending_events net in
  if pending >= 100 then
    Alcotest.failf "%d events still queued after 10,000 exchanges" pending

(* The caller's timeout runs from submission: a handler slower than the
   timeout loses the race, and its answer arrives as a late reply. *)
let slow_handler_times_out () =
  let clock, net = fresh () in
  Network.listen net ~addr:"a:1" (fun p ->
      Clock.advance clock 2_000_000L;
      echo p);
  (match Network.call net ~timeout_ns:1_000_000L ~addr:"a:1" "x" with
   | Error Errno.ETIMEDOUT -> ()
   | Ok _ -> Alcotest.fail "slow handler answered inside the timeout"
   | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  Network.pump net;
  let count name = Metrics.counter_value_of (Network.metrics net) name in
  Alcotest.(check int) "net.timeout counted" 1 (count "net.timeout");
  Alcotest.(check int) "net.late_reply counted" 1 (count "net.late_reply")

let suite =
  [
    Alcotest.test_case "call roundtrip" `Quick call_roundtrip;
    Alcotest.test_case "connection refused" `Quick connection_refused;
    Alcotest.test_case "unlisten" `Quick unlisten_stops_service;
    Alcotest.test_case "latency per direction" `Quick latency_charged_per_direction;
    Alcotest.test_case "bandwidth per byte" `Quick bandwidth_charged_per_byte;
    Alcotest.test_case "stats accumulate" `Quick stats_accumulate;
    Alcotest.test_case "addresses sorted" `Quick addresses_sorted;
    Alcotest.test_case "raising handler resets" `Quick raising_handler_becomes_reset;
    Alcotest.test_case "drops deterministic" `Quick drops_deterministic_from_seed;
    Alcotest.test_case "crash and restart" `Quick crash_then_restart;
    Alcotest.test_case "call_any hedges, then stops at an answer" `Quick
      call_any_hedges_then_stops;
    Alcotest.test_case "partition heals" `Quick partition_cuts_then_heals;
    Alcotest.test_case "dead timeouts swept" `Quick dead_timeouts_swept;
    Alcotest.test_case "slow handler times out" `Quick slow_handler_times_out;
  ]
