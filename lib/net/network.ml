module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Trace = Idbox_kernel.Trace
module Errno = Idbox_vfs.Errno

type endpoint_stats = {
  mutable calls : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable busy_ns : int64;
      (* Service time this endpoint spent handling calls: transfer time
         for both legs plus the simulated-clock time its handler burned.
         The capacity model for cluster benchmarks: with perfect
         sharding, aggregate throughput is bounded by the busiest
         endpoint's busy time, not the sum. *)
}

(* A completion token: the client half of an in-flight asynchronous
   exchange.  Completed exactly once — by the response arriving or by
   the timeout event, whichever fires first; whatever shows up second
   is discarded and counted as a late reply. *)
type token = {
  tk_addr : string;
  mutable tk_result : (string, Errno.t) result option;
  mutable tk_done_at : int64;  (* meaningful once tk_result is set *)
}

(* The server half of an asynchronous exchange: handed to an async
   endpoint's handler on delivery, consumed by [respond] — possibly
   much later, after the server parked the request. *)
type conn = {
  cn_token : token;
  cn_addr : string;
  cn_deliver_at : int64;
  cn_req_ns : int64;  (* request-leg transfer time, for busy accounting *)
  cn_stats : endpoint_stats option;  (* of the endpoint it was delivered to *)
  mutable cn_open : bool;  (* the delivery event is still running *)
  mutable cn_resp_ns : int64 option;  (* response leg answered while open *)
}

type endpoint = {
  handler : conn -> string -> unit;
  ep_stats : endpoint_stats;
  mutable up : bool;
}

(* The event queue: a binary min-heap ordered by (time, seq).  Events
   carry a liveness guard so a cancelled event — a timeout whose token
   already completed — is skipped {e without} advancing the clock;
   draining the queue after a burst of fast exchanges must not teleport
   the world to the last armed timeout. *)
type event = {
  ev_time : int64;
  ev_seq : int;
  ev_live : unit -> bool;
  ev_run : unit -> unit;  (* runs with the clock advanced to ev_time *)
}

module Heap = struct
  (* [sweep_at] bounds the dead weight: every exchange arms a timeout
     that stays queued, already dead, until the clock passes it.  Once
     the queue reaches twice the live count of the last sweep (and at
     least [min_sweep]), the dead are dropped, so the queue tracks live
     events, not history — and stays shallow, which is most of the cost
     of a push or pop. *)
  type h = {
    mutable arr : event array;
    mutable len : int;
    mutable sweep_at : int;
  }

  let min_sweep = 16

  let create () = { arr = [||]; len = 0; sweep_at = min_sweep }

  let before a b =
    let c = Int64.compare a.ev_time b.ev_time in
    if c <> 0 then c < 0 else a.ev_seq < b.ev_seq

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = if l < h.len && before h.arr.(l) h.arr.(i) then l else i in
    let s = if r < h.len && before h.arr.(r) h.arr.(s) then r else s in
    if s <> i then begin
      swap h i s;
      sift_down h s
    end

  (* Liveness only ever goes from true to false and (time, seq) orders
     events totally, so the survivors pop in exactly the order they
     would have anyway. *)
  let sweep h =
    let n = h.len in
    h.len <- 0;
    for i = 0 to n - 1 do
      let e = h.arr.(i) in
      if e.ev_live () then begin
        h.arr.(h.len) <- e;
        h.len <- h.len + 1
      end
    done;
    for i = (h.len / 2) - 1 downto 0 do
      sift_down h i
    done;
    h.sweep_at <- max min_sweep (2 * h.len)

  let push h e =
    if h.len >= h.sweep_at then sweep h;
    if h.len = Array.length h.arr then begin
      let arr = Array.make (max 16 (2 * Array.length h.arr)) e in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    h.arr.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    let parent i = (i - 1) / 2 in
    while !i > 0 && before h.arr.(!i) h.arr.(parent !i) do
      swap h !i (parent !i);
      i := parent !i
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.arr.(0) <- h.arr.(h.len);
        sift_down h 0
      end;
      Some top
    end
end

type t = {
  nw_clock : Clock.t;
  endpoints : (string, endpoint) Hashtbl.t;
  latency_ns : int64;
  ns_per_byte : float;
  nw_metrics : Metrics.t;
  nw_trace : Trace.ring option;
  mutable plan : Fault.plan option;
  mutable rng : Fault.rng;
  mutable messages : int;
  mutable bytes : int;
  (* Counter handles interned once per name: the fault/timeout hot
     paths update them without re-hashing the name in the registry on
     every call (per-endpoint names are interned at first use). *)
  nw_counters : Metrics.handles;
  c_timeout : Metrics.counter;
  c_hedge : Metrics.counter;
  c_late : Metrics.counter;
  eventq : Heap.h;
  mutable ev_seq : int;
}

(* How long a caller waits for a lost message when it names no timeout
   of its own: 1 s. *)
let default_timeout_ns = 1_000_000_000L

let create ~clock ?(latency_us = 100.) ?(bandwidth_mbps = 100.) ?metrics
    ?trace () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    nw_clock = clock;
    endpoints = Hashtbl.create 8;
    latency_ns = Clock.of_micros latency_us;
    (* bits/s -> ns/byte *)
    ns_per_byte = 8e3 /. bandwidth_mbps;
    nw_metrics = m;
    nw_trace = trace;
    plan = None;
    rng = Fault.rng 0L;
    messages = 0;
    bytes = 0;
    nw_counters = Metrics.handles m;
    c_timeout = Metrics.counter m "net.timeout";
    c_hedge = Metrics.counter m "net.hedge";
    c_late = Metrics.counter m "net.late_reply";
    eventq = Heap.create ();
    ev_seq = 0;
  }

let clock t = t.nw_clock
let metrics t = t.nw_metrics

let interned t name = Metrics.handle t.nw_counters name

let fresh_stats () = { calls = 0; bytes_in = 0; bytes_out = 0; busy_ns = 0L }

let listen_async t ~addr handler =
  Hashtbl.replace t.endpoints addr
    { handler; ep_stats = fresh_stats (); up = true }

let unlisten t ~addr = Hashtbl.remove t.endpoints addr

let addresses t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.endpoints []
  |> List.sort String.compare

let set_fault_plan t plan =
  t.plan <- Some plan;
  t.rng <- Fault.rng plan.Fault.seed

let clear_fault_plan t = t.plan <- None

let crash t ~addr =
  match Hashtbl.find_opt t.endpoints addr with
  | Some ep -> ep.up <- false
  | None -> ()

let restart t ~addr =
  match Hashtbl.find_opt t.endpoints addr with
  | Some ep -> ep.up <- true
  | None -> ()

let is_up t ~addr =
  match Hashtbl.find_opt t.endpoints addr with
  | Some ep -> ep.up
  | None -> false

let transfer_ns t nbytes =
  Int64.add t.latency_ns
    (Int64.of_float (float_of_int nbytes *. t.ns_per_byte))

(* Count a fault both network-wide and per destination, and leave a
   span in the trace ring so fault timelines are reconstructable. *)
let note_fault t ~addr ~kind ~verdict ~cost_ns =
  Metrics.incr (interned t kind);
  Metrics.incr (interned t (kind ^ "." ^ addr));
  match t.nw_trace with
  | None -> ()
  | Some ring ->
    Trace.span ring ~time:(Clock.now t.nw_clock) ~pid:0 ~identity:addr
      ~syscall:kind ~verdict ~cost_ns

(* {1 Exchanges}

   One path for every exchange: [listen] and [call] below are thin
   synchronous faces of [listen_async] and [submit].  [submit] consumes the request-leg fault stream immediately (in
   submission order, so seeded runs stay deterministic) but advances
   no clock: faults translate into what gets scheduled, not into
   blocking.  Every submitted exchange arms exactly one timeout event;
   the token is completed by whichever of {response, timeout} fires
   first, and the loser is discarded — counted as [net.late_reply]
   when a response loses.  Event execution moves the clock forward to
   the event's time ([Clock.advance_to]); dead events are skipped
   without touching the clock. *)

let schedule t ~at ~live run =
  let e = { ev_time = at; ev_seq = t.ev_seq; ev_live = live; ev_run = run } in
  t.ev_seq <- t.ev_seq + 1;
  Heap.push t.eventq e

let at t time run = schedule t ~at:time ~live:(fun () -> true) run

let note_late t addr =
  Metrics.incr t.c_late;
  Metrics.incr (interned t ("net.late_reply." ^ addr))

(* Deliver [result] to [tok] at absolute time [at].  If the timeout
   beat this event to the token, the arrival is a late reply. *)
let schedule_completion t tok ~at result =
  schedule t ~at ~live:(fun () -> true) (fun () ->
      match tok.tk_result with
      | Some _ -> note_late t tok.tk_addr
      | None ->
        tok.tk_result <- Some result;
        tok.tk_done_at <- Clock.now t.nw_clock)

(* Busy time runs from the request leg through the response leg.  An
   answer given inside the delivery event is charged when that event
   ends, so work the handler does after replying (a checkpoint) still
   occupies the endpoint. *)
let charge_busy t conn resp_ns =
  if conn.cn_open then conn.cn_resp_ns <- Some resp_ns
  else
    match conn.cn_stats with
    | None -> ()
    | Some st ->
      let handler_ns = Int64.sub (Clock.now t.nw_clock) conn.cn_deliver_at in
      st.busy_ns <-
        Int64.add st.busy_ns
          (Int64.add conn.cn_req_ns (Int64.add handler_ns resp_ns))

let respond t conn response =
  let tok = conn.cn_token in
  let addr = conn.cn_addr in
  match tok.tk_result with
  | Some _ ->
    (* The caller gave up (its timeout fired) before this response left
       the server: discard it without burning any fault RNG — lateness
       is deterministic, the stream must be too.  The server still did
       the work, so it still gets charged. *)
    charge_busy t conn 0L;
    note_late t addr
  | None ->
    let prof =
      match t.plan with
      | None -> Fault.calm
      | Some p -> Fault.profile_for p addr
    in
    if Fault.chance t.rng prof.Fault.reset then begin
      charge_busy t conn t.latency_ns;
      note_fault t ~addr ~kind:"net.reset" ~verdict:"ECONNRESET"
        ~cost_ns:t.latency_ns;
      schedule_completion t tok
        ~at:(Int64.add (Clock.now t.nw_clock) t.latency_ns)
        (Error Errno.ECONNRESET)
    end
    else if Fault.chance t.rng prof.Fault.drop then begin
      (* Response lost after the handler ran: nothing to schedule —
         the timeout armed at submit completes the exchange. *)
      t.messages <- t.messages + 1;
      t.bytes <- t.bytes + String.length response;
      charge_busy t conn (transfer_ns t (String.length response));
      note_fault t ~addr ~kind:"net.drop" ~verdict:"ETIMEDOUT"
        ~cost_ns:default_timeout_ns
    end
    else begin
      let response =
        if Fault.chance t.rng prof.Fault.truncate then begin
          note_fault t ~addr ~kind:"net.truncate" ~verdict:"ok" ~cost_ns:0L;
          Fault.truncate_string t.rng response
        end
        else if Fault.chance t.rng prof.Fault.corrupt then begin
          note_fault t ~addr ~kind:"net.corrupt" ~verdict:"ok" ~cost_ns:0L;
          Fault.flip_bytes t.rng response
        end
        else response
      in
      let resp_ns = transfer_ns t (String.length response) in
      t.messages <- t.messages + 1;
      t.bytes <- t.bytes + String.length response;
      (match conn.cn_stats with
       | Some st -> st.bytes_out <- st.bytes_out + String.length response
       | None -> ());
      charge_busy t conn resp_ns;
      schedule_completion t tok
        ~at:(Int64.add (Clock.now t.nw_clock) resp_ns)
        (Ok response)
    end

(* The handler blew up (or the endpoint died between submit and
   delivery): contain it at the wire, surface a reset. *)
let respond_reset t conn =
  let tok = conn.cn_token in
  let addr = conn.cn_addr in
  charge_busy t conn t.latency_ns;
  if tok.tk_result = None then begin
    note_fault t ~addr ~kind:"net.reset" ~verdict:"ECONNRESET"
      ~cost_ns:t.latency_ns;
    schedule_completion t tok
      ~at:(Int64.add (Clock.now t.nw_clock) t.latency_ns)
      (Error Errno.ECONNRESET)
  end
  else note_late t addr

let deliver t ~addr tok ~req_ns payload =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + String.length payload;
  let ep = Hashtbl.find_opt t.endpoints addr in
  let conn =
    { cn_token = tok; cn_addr = addr;
      cn_deliver_at = Clock.now t.nw_clock; cn_req_ns = req_ns;
      cn_stats = Option.map (fun ep -> ep.ep_stats) ep;
      cn_open = false; cn_resp_ns = None }
  in
  match ep with
  | None | Some { up = false; _ } -> respond_reset t conn
  | Some ep ->
    ep.ep_stats.calls <- ep.ep_stats.calls + 1;
    ep.ep_stats.bytes_in <- ep.ep_stats.bytes_in + String.length payload;
    conn.cn_open <- true;
    (try ep.handler conn payload with _ -> respond_reset t conn);
    conn.cn_open <- false;
    Option.iter (charge_busy t conn) conn.cn_resp_ns

(* A synchronous endpoint is an asynchronous one that answers before
   its delivery event returns. *)
let listen t ~addr handler =
  listen_async t ~addr (fun conn payload -> respond t conn (handler payload))

let submit t ?(src = "client") ?timeout_ns ~addr payload =
  let timeout =
    match timeout_ns with Some v -> v | None -> default_timeout_ns
  in
  let tok = { tk_addr = addr; tk_result = None; tk_done_at = 0L } in
  let prof =
    match t.plan with
    | None -> Fault.calm
    | Some p -> Fault.profile_for p addr
  in
  let cut =
    match t.plan with
    | None -> false
    | Some p -> Fault.partitioned p ~now:(Clock.now t.nw_clock) ~src ~dst:addr
  in
  let arm_timeout () =
    schedule t ~at:(Int64.add (Clock.now t.nw_clock) timeout)
      ~live:(fun () -> tok.tk_result = None)
      (fun () ->
        tok.tk_result <- Some (Error Errno.ETIMEDOUT);
        tok.tk_done_at <- Clock.now t.nw_clock;
        Metrics.incr t.c_timeout;
        Metrics.incr (interned t ("net.timeout." ^ addr)))
  in
  let refused () =
    note_fault t ~addr ~kind:"net.refused" ~verdict:"ECONNREFUSED" ~cost_ns:0L;
    tok.tk_result <- Some (Error Errno.ECONNREFUSED);
    tok.tk_done_at <- Clock.now t.nw_clock
  in
  if cut then begin
    note_fault t ~addr ~kind:"net.partition" ~verdict:"ETIMEDOUT"
      ~cost_ns:timeout;
    arm_timeout ()
  end
  else begin
    match Hashtbl.find_opt t.endpoints addr with
    | None -> refused ()
    | Some ep when not ep.up -> refused ()
    | Some _ ->
      let jitter_ns =
        if Fault.chance t.rng prof.Fault.jitter then begin
          let extra =
            Int64.of_int
              (Fault.int_below t.rng (Int64.to_int prof.Fault.max_jitter_ns))
          in
          note_fault t ~addr ~kind:"net.jitter" ~verdict:"ok" ~cost_ns:extra;
          extra
        end
        else 0L
      in
      if Fault.chance t.rng prof.Fault.drop then begin
        (* Request lost in flight: the bytes left the sender, the
           handler never sees them; the timeout ends the wait. *)
        t.messages <- t.messages + 1;
        t.bytes <- t.bytes + String.length payload;
        note_fault t ~addr ~kind:"net.drop" ~verdict:"ETIMEDOUT"
          ~cost_ns:timeout;
        arm_timeout ()
      end
      else begin
        let req_ns =
          Int64.add jitter_ns (transfer_ns t (String.length payload))
        in
        arm_timeout ();
        schedule t ~at:(Int64.add (Clock.now t.nw_clock) req_ns)
          ~live:(fun () -> true)
          (fun () -> deliver t ~addr tok ~req_ns payload)
      end
  end;
  tok

let poll tok = tok.tk_result

let completed_at tok =
  match tok.tk_result with None -> None | Some _ -> Some tok.tk_done_at

let rec step t =
  match Heap.pop t.eventq with
  | None -> false
  | Some e ->
    if e.ev_live () then begin
      Clock.advance_to t.nw_clock e.ev_time;
      e.ev_run ();
      true
    end
    else step t

let pump t = while step t do () done

let pending_events t = t.eventq.Heap.len

let rec await t tok =
  match tok.tk_result with
  | Some r -> r
  | None ->
    if step t then await t tok
    else begin
      (* Nothing left in the queue yet the exchange is open: the
         server parked it and armed no wakeup.  Fail the wait rather
         than spin forever. *)
      tok.tk_result <- Some (Error Errno.ETIMEDOUT);
      tok.tk_done_at <- Clock.now t.nw_clock;
      Metrics.incr t.c_timeout;
      Error Errno.ETIMEDOUT
    end

(* A synchronous call is an asynchronous exchange that completes
   before returning. *)
let call t ?src ?timeout_ns ~addr payload =
  await t (submit t ?src ?timeout_ns ~addr payload)

let stats t ~addr =
  Option.map (fun ep -> ep.ep_stats) (Hashtbl.find_opt t.endpoints addr)

let busy_ns t ~addr =
  match Hashtbl.find_opt t.endpoints addr with
  | Some ep -> ep.ep_stats.busy_ns
  | None -> 0L

let total_messages t = t.messages

let total_bytes t = t.bytes

(* {1 Hedged calls} *)

(* Transport failures worth trying the next address for.  A
   handler-level error (anything the endpoint answered) stops the
   sweep: the addresses are replicas of one service, so an application
   verdict from one speaks for all. *)
let hedgeable = function
  | Errno.ETIMEDOUT | Errno.ECONNRESET | Errno.ECONNREFUSED
  | Errno.EHOSTUNREACH -> true
  | _ -> false

let call_any t ?(src = "client") ?timeout_ns ~addrs payload =
  let rec sweep = function
    | [] -> Error Errno.EHOSTUNREACH
    | addr :: rest ->
      (match call t ~src ?timeout_ns ~addr payload with
       | Ok response -> Ok (addr, response)
       | Error e when hedgeable e && rest <> [] ->
         (* Hedged failover: this address is unreachable, the next may
            not be. *)
         Metrics.incr t.c_hedge;
         sweep rest
       | Error e -> Error e)
  in
  sweep addrs
