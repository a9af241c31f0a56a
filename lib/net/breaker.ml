module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Errno = Idbox_vfs.Errno

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type t = {
  br_clock : Clock.t;
  br_metrics : Metrics.t;
  br_prefix : string;
  br_subject : string;
  br_threshold : int;
  br_reset_ns : int64;
  br_on_transition : (string -> state -> unit) option;
  mutable br_state : state;
  mutable br_failures : int;  (* consecutive failures while closed *)
  mutable br_opened_at : int64;
  mutable br_last_errno : Errno.t;
  mutable br_trips : int;
}

let create ?(threshold = 3) ?(reset_ns = 500_000_000L) ?(prefix = "breaker")
    ?on_transition ~clock ~metrics subject =
  {
    br_clock = clock;
    br_metrics = metrics;
    br_prefix = prefix;
    br_subject = subject;
    br_threshold = max 1 threshold;
    br_reset_ns = Int64.max 1L reset_ns;
    br_on_transition = on_transition;
    br_state = Closed;
    br_failures = 0;
    br_opened_at = 0L;
    br_last_errno = Errno.EHOSTUNREACH;
    br_trips = 0;
  }

let state t = t.br_state
let subject t = t.br_subject
let last_errno t = t.br_last_errno
let trips t = t.br_trips

let metric t suffix =
  Metrics.incr (Metrics.counter t.br_metrics (t.br_prefix ^ "." ^ suffix))

let transition t st =
  t.br_state <- st;
  match t.br_on_transition with
  | None -> ()
  | Some f -> f t.br_subject st

(* Trip (or re-trip) open: every subsequent request short-circuits until
   the reset window has elapsed. *)
let trip t =
  t.br_opened_at <- Clock.now t.br_clock;
  t.br_failures <- 0;
  t.br_trips <- t.br_trips + 1;
  metric t "open";
  transition t Open

let allow t =
  match t.br_state with
  | Closed -> true
  | Open ->
    if Int64.sub (Clock.now t.br_clock) t.br_opened_at >= t.br_reset_ns
    then begin
      (* Reset window elapsed: go half-open and spend the one probe on
         this very request. *)
      metric t "half_open";
      transition t Half_open;
      metric t "probe";
      true
    end
    else begin
      metric t "short_circuit";
      false
    end
  | Half_open ->
    (* The probe is out: everything else waits for its verdict. *)
    metric t "short_circuit";
    false

let success t =
  match t.br_state with
  | Closed -> t.br_failures <- 0
  | Half_open | Open ->
    (* A successful probe (or a success racing the trip): the replica is
       back — close and forget its history. *)
    t.br_failures <- 0;
    metric t "close";
    transition t Closed

let failure ?errno t =
  (match errno with Some e -> t.br_last_errno <- e | None -> ());
  match t.br_state with
  | Closed ->
    t.br_failures <- t.br_failures + 1;
    if t.br_failures >= t.br_threshold then trip t
  | Half_open ->
    (* The probe failed: straight back to open, new reset window. *)
    trip t
  | Open -> ()
