(* In-memory spans for the traced run.

   A span is a host-timed call into one layer, recorded from the
   benchmark's own files: [op] around each workload operation,
   [box.trap] around the box's syscall-stop callbacks, [server.handle]
   around each Chirp server's request handler, and [world.tick] /
   [geo.tick] around housekeeping.  Self time is a span's duration minus
   its children's.  Aggregates cover every traced span; the first
   [keep] spans are also kept whole for the Chrome trace export. *)

type name = Op | Box_trap | Server_handle | World_tick | Geo_tick

let names = [| "op"; "box.trap"; "server.handle"; "world.tick"; "geo.tick" |]

let index = function
  | Op -> 0
  | Box_trap -> 1
  | Server_handle -> 2
  | World_tick -> 3
  | Geo_tick -> 4

let n_names = Array.length names

(* Tracing is on only inside traced windows. *)
let on = ref false

(* The id of the operation in flight, stamped on every span. *)
let op_id = ref 0

let self_s = Array.make n_names 0.
let count = Array.make n_names 0

(* Per traced window: durations of root spans and self times. *)
let window_roots = ref 0.
let window_self = ref 0.

(* The open-span stack. *)
type frame = {
  f_name : int;
  f_t0 : float;
  mutable f_children : float;
  f_seq : int;
}

let stack : frame list ref = ref []
let seq = ref 0

(* Kept spans: name, start, end, parent seq (-1 for roots), op id. *)
let keep = 20_000

type kept = { k_name : int; k_t0 : float; k_t1 : float; k_parent : int; k_op : int; k_seq : int }

let kept : kept list ref = ref []
let n_kept = ref 0

let close frame t1 =
  let dur = t1 -. frame.f_t0 in
  let self = dur -. frame.f_children in
  self_s.(frame.f_name) <- self_s.(frame.f_name) +. self;
  count.(frame.f_name) <- count.(frame.f_name) + 1;
  window_self := !window_self +. self;
  let parent =
    match !stack with
    | p :: _ ->
      p.f_children <- p.f_children +. dur;
      p.f_seq
    | [] ->
      window_roots := !window_roots +. dur;
      -1
  in
  if !n_kept < keep then begin
    kept :=
      { k_name = frame.f_name; k_t0 = frame.f_t0; k_t1 = t1; k_parent = parent;
        k_op = !op_id; k_seq = frame.f_seq }
      :: !kept;
    incr n_kept
  end

let span name f =
  if not !on then f ()
  else begin
    let frame = { f_name = index name; f_t0 = Harness.now (); f_children = 0.; f_seq = !seq } in
    incr seq;
    stack := frame :: !stack;
    let finish () =
      let t1 = Harness.now () in
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      close frame t1
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let self_us n = self_s.(index n) *. 1e6
let calls n = count.(index n)

(* {1 Window accounting} *)

let window_checks = ref 0
let window_failures = ref 0

let start_window () =
  window_roots := 0.;
  window_self := 0.

(* Self times plus harness time must add up to the window's host time:
   the harness is the window minus its root spans, so a span left open,
   closed twice or reaching outside its parent breaks the sum. *)
let end_window dt =
  let harness = dt -. !window_roots in
  incr window_checks;
  if !stack <> [] || Float.abs (!window_self +. harness -. dt) > 0.01 *. dt +. 1e-9
  then incr window_failures

(* {1 Chrome trace-event export} *)

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let first = ref true in
  List.iter
    (fun k ->
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d}}"
        names.(k.k_name) (k.k_t0 *. 1e6)
        ((k.k_t1 -. k.k_t0) *. 1e6)
        k.k_seq k.k_parent k.k_op)
    (List.rev !kept);
  output_string oc "\n]}\n";
  close_out oc
