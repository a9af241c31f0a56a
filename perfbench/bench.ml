(* The repository benchmark.

     bench.exe --workload box-read|chirp-read|chirp-write --seed N
               --seconds S --trace 0|1 [--smoke] [--out DIR]

   With --trace 0 it prints the end-to-end metrics; with --trace 1 a
   separate traced run prints the per-layer metrics and writes its spans
   to DIR/trace-<workload>.json.  The last line of stdout is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  A wrong
   result, or state that grew while the clock ran, exits 1.  --smoke
   runs a tiny deployment in seconds.  See DESIGN.md beside this file. *)

open Harness
module Kernel = Idbox_kernel.Kernel
module Clock = Idbox_kernel.Clock

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload box-read|chirp-read|chirp-write --seed N \
     --seconds S --trace 0|1 [--smoke] [--out DIR]";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--out" :: v :: rest -> go { a with out = v } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    go
      { workload = ""; seed = 1; seconds = 10.; trace = false; smoke = false;
        out = "perfbench/out" }
      (List.tl (Array.to_list argv))
  in
  if a.workload = "" then usage ();
  a

(* Set-up is repeated and its median reported, so work moved into
   set-up shows; the last deployment is the one measured.  Each set-up's
   host time is taken at the reference speed (see [Harness.calibrated]).
   The traced run sets up once. *)
let timed_setups a build =
  let n = if a.smoke || a.trace then 1 else 5 in
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.compact ();
    let t0 = now () in
    let v, dt = calibrated build in
    Printf.printf "set-up: %.3f s at the reference speed (%.3f s raw)\n" dt (now () -. t0);
    times := dt :: !times;
    last := Some v
  done;
  (Option.get !last, quantile (Array.of_list !times) 0.5)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* {1 One run} *)

type outcome = {
  phase : phase;
  sim_us : float array;  (** Simulated latency of each counted op. *)
  sim_capacity : float;
  failed : int;
  failure : string option;
  setup_s : float;
  before : witness;
  after : witness;
  layers : Layers.inputs option;
}

(* Traced windows alternate with untraced ones, so one run gives both
   the per-layer numbers and the tracing overhead. *)
type tracing = {
  mutable tr_s : float;
  mutable tr_ops : int;
  mutable un_s : float;
  mutable un_ops : int;
}

let tracing () = { tr_s = 0.; tr_ops = 0; un_s = 0.; un_ops = 0 }

let window_hooks a t ~window =
  if not a.trace then (None, None)
  else
    ( Some
        (fun idx ->
          let traced = idx mod 2 = 0 in
          if traced then begin
            Spans.start_window ();
            Spans.on := true
          end;
          traced),
      Some
        (fun ~traced dt ->
          Spans.on := false;
          if traced then begin
            Spans.end_window dt;
            t.tr_s <- t.tr_s +. dt;
            t.tr_ops <- t.tr_ops + window
          end
          else begin
            t.un_s <- t.un_s +. dt;
            t.un_ops <- t.un_ops + window
          end) )

let us_per_op s ops = if ops = 0 then 0. else s *. 1e6 /. float_of_int ops

(* Every replayed timing, 0 where the workload does not reach the layer. *)
let timing_names =
  [ ("enforce.check_ns", "ns"); ("policy.compile_ms", "ms"); ("policy.eval_ns", "ns");
    ("acl.check_ns", "ns"); ("vfs.lstat_ns", "ns"); ("protocol.decode_us", "us");
    ("protocol.encode_us", "us"); ("ring.lookup_ns", "ns"); ("wal.append_sync_us", "us");
    ("wal.checkpoint_ms", "ms"); ("wal.segment_us", "us"); ("delegation.validate_us", "us") ]

let timings got =
  List.map
    (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n got)))
    timing_names

(* {1 box-read} *)

let right_of = function
  | Idbox_kernel.Syscall.Open _ -> Some Idbox_acl.Right.Read
  | Idbox_kernel.Syscall.Stat _ | Idbox_kernel.Syscall.Readdir _
  | Idbox_kernel.Syscall.Getacl _ -> Some Idbox_acl.Right.List
  | _ -> None

let path_of = function
  | Idbox_kernel.Syscall.Open { path; _ } -> path
  | Idbox_kernel.Syscall.Stat p | Idbox_kernel.Syscall.Readdir p
  | Idbox_kernel.Syscall.Getacl p -> p
  | _ -> ""

let run_box a =
  let module B = Box_read in
  let size = if a.smoke then B.tiny else B.full in
  let (fx, seqs), setup_s =
    timed_setups a (fun () ->
        let fx = B.build ~size ~seed:a.seed in
        let seqs = Array.init 2 (fun who -> B.ops ~fx ~seed:a.seed ~who) in
        (* Warm-up: one untimed pass per box fills the enforce caches
           and compiles the policy bytecode. *)
        Array.iteri
          (fun who ops ->
            B.run_in fx ~who (fun pid ->
                Array.iter
                  (fun op ->
                    match B.perform fx ~pid op with
                    | None -> ()
                    | Some m -> failwith ("warm-up: " ^ m))
                  ops))
          seqs;
        (fx, seqs))
  in
  let registries = [ Kernel.metrics fx.B.kernel ] and kernels = [ fx.B.kernel ] in
  let snap () = Layers.snapshot ~kernels ~registries ~extra:[] in
  (* Counts cover pass 0 of each box: the sum of two deltas. *)
  let pass0_counts = Array.make 2 (snap (), snap ()) in
  (* Traced: the trap handler is wrapped in a [box.trap] span, and the
     paths it sees are captured for the inner-layer replays. *)
  let captured = Layers.capture 2000 in
  let wrap who (h : Idbox_kernel.Trace.handler) =
    {
      h with
      Idbox_kernel.Trace.on_entry =
        (fun ~pid req ->
          (match right_of req with
           | Some r when !Spans.on -> Layers.keep captured (who, path_of req, r)
           | _ -> ());
          Spans.span Spans.Box_trap (fun () -> h.Idbox_kernel.Trace.on_entry ~pid req));
      on_exit =
        (fun ~pid req res ->
          Spans.span Spans.Box_trap (fun () -> h.Idbox_kernel.Trace.on_exit ~pid req res));
    }
  in
  let before = B.witness fx in
  let tr = tracing () in
  let traced, on_window = window_hooks a tr ~window:size.window in
  let failed = ref 0 and failure = ref None in
  let sim_us = Array.make (2 * size.ops) 0. in
  let sim_elapsed = ref 0L in
  (* A pass is each visitor's sequence in turn, each in a boxed process
     of its own; passes alternate the boxes, so both visitors see the
     same machine conditions. *)
  let pid = ref 0 and pass0 = ref 0L in
  let step ~pass i =
    let who = i / size.ops and j = i mod size.ops in
    let t0 = Kernel.now fx.B.kernel in
    if pass = 0 && j = 0 then begin
      pass0 := t0;
      pass0_counts.(who) <- (snap (), snap ())
    end;
    Spans.op_id := (pass * 2 * size.ops) + i;
    (match Spans.span Spans.Op (fun () -> B.perform fx ~pid:!pid seqs.(who).(j)) with
     | None -> ()
     | Some m ->
       incr failed;
       if !failure = None then failure := Some m);
    let t1 = Kernel.now fx.B.kernel in
    if pass = 0 then begin
      sim_us.(i) <- Int64.to_float (Int64.sub t1 t0) /. 1e3;
      if j = size.ops - 1 then begin
        sim_elapsed := Int64.add !sim_elapsed (Int64.sub t1 !pass0);
        pass0_counts.(who) <- (fst pass0_counts.(who), snap ())
      end
    end
  in
  let run_pass windows =
    for who = 0 to 1 do
      let wrap = if a.trace then Some (wrap who) else None in
      B.run_in fx ~who ?wrap (fun p ->
          pid := p;
          windows (who * size.ops) ((who + 1) * size.ops))
    done
  in
  let phase =
    measure ?traced ?on_window ~run_pass ~calib_per_window:(if a.trace then 0 else 2)
      ~budget_s:a.seconds ~n_ops:(2 * size.ops)
      ~window:size.window ~step ()
  in
  let after = B.witness fx in
  let layers =
    if not a.trace then None
    else begin
      let module Enforce = Idbox.Enforce in
      let inputs = captured.Layers.items in
      let principal who = Idbox_identity.Principal.of_string (B.principal B.cns.(who)) in
      let enf who = Idbox.Box.enforcer fx.B.boxes.(who) in
      let sup = (Idbox.Box.supervisor_view fx.B.boxes.(0)).Idbox_kernel.View.uid in
      let fs = Kernel.fs fx.B.kernel in
      let acls =
        List.filter_map
          (fun (who, path, r) ->
            match Enforce.dir_acl (enf who) (Enforce.governing_dir (enf who) path) with
            | Some acl -> Some (acl, principal who, r)
            | None -> None)
          inputs
      in
      let eval =
        match Kernel.policy fx.B.kernel with
        | None -> 0.
        | Some prog ->
          Layers.ns_per_call
            (fun (who, path, r) ->
              Idbox_kernel.Policy.eval_object prog ~principal:(B.principal B.cns.(who)) ~path
                ~right_bit:(Idbox.Policy_compile.right_bit r))
            inputs
      in
      let tm =
        [
          ( "enforce.check_ns",
            Layers.ns_per_call
              (fun (who, path, r) -> Enforce.check_object (enf who) ~identity:(principal who) ~path r)
              inputs );
          ("policy.eval_ns", eval);
          ("acl.check_ns", Layers.ns_per_call (fun (acl, who, r) -> Idbox_acl.Acl.check acl who r) acls);
          ( "vfs.lstat_ns",
            Layers.ns_per_call (fun (_, path, _) -> Idbox_vfs.Fs.lstat fs ~uid:sup path) inputs );
          ( "policy.compile_ms",
            1e3 *. Layers.median_s (fun () -> Idbox.Policy_compile.compile fs ~uid:sup) );
        ]
      in
      let cb, ca = Layers.sum_deltas (Array.to_list pass0_counts) in
      Some
        {
          Layers.before = cb; after = ca; counted_ops = 2 * size.ops;
          traced_ops = tr.tr_ops;
          traced_us_per_op = us_per_op tr.tr_s tr.tr_ops;
          untraced_us_per_op = us_per_op tr.un_s tr.un_ops;
          timings = timings tm;
          values =
            [
              ("kernel.self_us", "us", Spans.self_us Spans.Op /. float_of_int (max 1 tr.tr_ops));
              ("router.self_us", "us", 0.);
              ("vfs.entries", "count", float_of_int (List.fold_left ( + ) 0 after.w_entries));
              ("net.busiest_sim_busy_us_per_op", "us", 0.);
              ("replica.sim_busy_us_per_op", "us", 0.);
            ];
        }
    end
  in
  {
    phase; sim_us;
    sim_capacity = float_of_int (2 * size.ops) /. (Int64.to_float !sim_elapsed /. 1e9);
    failed = !failed; failure = !failure; setup_s; before; after; layers;
  }

(* {1 chirp-read and chirp-write} *)

let chirp_size ~smoke ~write : Chirp_load.size =
  match (smoke, write) with
  | true, _ -> { dirs = 4; files = 4; min_bytes = 64; max_bytes = 4096; ops = 100; window = 2 }
  | false, false -> { dirs = 32; files = 16; min_bytes = 1024; max_bytes = 16384; ops = 2000; window = 20 }
  | false, true -> { dirs = 8; files = 4; min_bytes = 64; max_bytes = 4096; ops = 1000; window = 20 }

let wal_prefix n = String.length n > 4 && String.sub n 0 4 = "wal."

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take i acc = function
      | x :: rest when i > 0 -> take (i - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

let run_chirp a ~write =
  let module D = Chirp_load in
  let module W = Chirp_work in
  let module Network = Idbox_net.Network in
  let module World = Idbox_cluster.World in
  let size = chirp_size ~smoke:a.smoke ~write in
  (* chirp-write: 10 ms think time and a 2 s repair cadence put several
     ship rounds, checkpoints and anti-entropy sweeps in every pass; a
     window of 20 ops spans about one 200 ms ship round, so every window
     holds one, and two passes give the phase 100 windows. *)
  let think_ns = if write then 10_000_000L else 5_000_000L in
  let repair_interval_ns = if write then 2_000_000_000L else 30_000_000_000L in
  let counted_passes = 1 and min_passes = if write then 2 else 1 in
  (* chirp-write's policy recompiles allocate ~13 MB of large arrays per
     op against a live heap of a few MB, so at the default pacing the
     major GC runs several cycles per op and its share of host time
     swings with memory contention (runs of one seed differed by 9 %).
     A slower pacing keeps the GC from dominating; runs then repeat to
     within 1 %. *)
  if write then Gc.set { (Gc.get ()) with Gc.space_overhead = 400 };
  let (st, ops), setup_s =
    timed_setups a (fun () ->
        let d = D.build ~size ~seed:a.seed ~repair_interval_ns in
        let ops = if write then W.write_ops ~size ~seed:a.seed ~d else W.read_ops ~size ~seed:a.seed in
        let st = W.state d in
        (* Warm-up, untimed: the read pass fills leases and route
           caches; the write warm-up runs a tenth of a pass plus one exec
           of each kind per directory, which stages every box and exec
           output before the clock starts. *)
        let warm =
          if write then
            List.concat
              (List.init size.dirs (fun k ->
                   let c = D.owner_of_dir k in
                   [ W.Exec { c; k; n = k }; W.Dexec { c; k; n = k } ]))
            @ Array.to_list
                (let n = ref (size.ops / 10) in
                 while W.opens_pair ops.(!n - 1) do incr n done;
                 Array.sub ops 0 !n)
          else Array.to_list ops
        in
        List.iter
          (fun op ->
            Clock.advance d.D.clock think_ns;
            W.run st op;
            D.tick d)
          warm;
        (st, ops))
  in
  let d = st.W.d in
  if st.W.failures > 0 then
    failwith ("warm-up failed: " ^ Option.value ~default:"" st.W.first_failure);
  let registries = Network.metrics d.D.net :: List.map Kernel.metrics (D.kernels d) in
  let snap () =
    Layers.snapshot ~kernels:(D.kernels d) ~registries
      ~extra:
        [ ("net.messages", Network.total_messages d.D.net); ("net.bytes", Network.total_bytes d.D.net) ]
  in
  let captured = Layers.capture 2000 in
  if a.trace then
    D.wrap_servers d ~capture:(fun s req resp ->
        if !Spans.on then Layers.keep captured (s, req, resp));
  let before = D.witness d in
  let tr = tracing () in
  let traced, on_window = window_hooks a tr ~window:size.window in
  let sim_us = Array.make (counted_passes * size.ops) 0. in
  let busy0 = ref [] and busiest = ref 0L and replica_busy = ref 0L and capacity = ref 0. in
  let counts0 = ref (snap ()) and counts1 = ref (snap ()) in
  let step ~pass i =
    if pass = 0 && i = 0 then begin
      busy0 := D.busy d;
      counts0 := snap ()
    end;
    Clock.advance d.D.clock think_ns;
    Spans.op_id := (pass * size.ops) + i;
    let t0 = Clock.now d.D.clock in
    Spans.span Spans.Op (fun () -> W.run st ops.(i));
    if pass < counted_passes then
      sim_us.((pass * size.ops) + i) <- Int64.to_float (Int64.sub (Clock.now d.D.clock) t0) /. 1e3;
    D.tick d;
    if pass = counted_passes - 1 && i = size.ops - 1 then begin
      counts1 := snap ();
      let busy1 = D.busy d in
      busiest := D.busiest_delta !busy0 busy1;
      replica_busy := D.replica_delta !busy0 busy1;
      capacity := float_of_int (counted_passes * size.ops) /. (Int64.to_float !busiest /. 1e9)
    end
  in
  let phase =
    measure ?traced ?on_window ~min_passes
      ~calib_per_window:(if a.trace then 0 else if write then size.window else 2)
      ~budget_s:a.seconds ~n_ops:size.ops
      ~window:size.window ~step ()
  in
  if write then W.verify_writes st;
  let after = D.witness d in
  let layers =
    if not a.trace then None
    else begin
      let module Protocol = Idbox_chirp.Protocol in
      let module Server = Idbox_chirp.Server in
      let module Enforce = Idbox.Enforce in
      let module Wal = Idbox_chirp.Wal in
      let k = World.kernel d.D.east in
      let fs = Kernel.fs k in
      let first = World.server d.D.east (List.hd (World.members d.D.east)) in
      let owner = Server.owner_uid first in
      let east = List.map (World.server d.D.east) (World.members d.D.east) in
      let items = captured.Layers.items in
      let reqs = List.map (fun (_, req, _) -> req) items in
      let ops_seen =
        List.filter_map
          (fun (s, req, _) ->
            match Protocol.decode_request req with
            | Ok (Protocol.Op { op; _ }) -> Some (s, op)
            | _ -> None)
          items
      in
      let resps =
        List.filter_map (fun (_, _, resp) -> Result.to_option (Protocol.decode_response resp)) items
      in
      (* A replay engine over the primary region's kernel, as a server's
         own engine is built. *)
      let engine = Enforce.create k ~supervisor:(Kernel.make_view k ~uid:owner ()) () in
      let alice = Idbox_identity.Principal.of_string (D.principal D.cns.(0)) in
      let checks =
        List.filter_map
          (fun (s, op) ->
            let path = Protocol.operation_path op in
            if path = "" || not (List.memq s east) then None
            else
              let right =
                match op with
                | Protocol.Get _ | Protocol.Checksum _ -> Idbox_acl.Right.Read
                | Protocol.Stat _ | Protocol.Readdir _ | Protocol.Getacl _ -> Idbox_acl.Right.List
                | _ -> Idbox_acl.Right.Write
              in
              Some (Server.export s ^ path, right))
          ops_seen
      in
      let acls =
        List.filter_map
          (fun (path, r) ->
            Option.map (fun acl -> (acl, r)) (Enforce.dir_acl engine (Enforce.governing_dir engine path)))
          checks
      in
      let records =
        List.filter_map
          (fun (_, op) -> if Protocol.idempotent op then None else Some (Protocol.operation_to_wire op))
          ops_seen
      in
      let ring = Idbox_cluster.Ring.create (World.members d.D.east) in
      let tm =
        [
          ("protocol.decode_us", 1e-3 *. Layers.ns_per_call Protocol.decode_request reqs);
          ("protocol.encode_us", 1e-3 *. Layers.ns_per_call Protocol.encode_response resps);
          ( "enforce.check_ns",
            Layers.ns_per_call (fun (path, r) -> Enforce.check_object engine ~identity:alice ~path r) checks );
          ( "policy.eval_ns",
            match Kernel.policy k with
            | None -> 0.
            | Some prog ->
              Layers.ns_per_call
                (fun (path, r) ->
                  Idbox_kernel.Policy.eval_object prog ~principal:(D.principal D.cns.(0)) ~path
                    ~right_bit:(Idbox.Policy_compile.right_bit r))
                checks );
          ("acl.check_ns", Layers.ns_per_call (fun (acl, r) -> Idbox_acl.Acl.check acl alice r) acls);
          ( "vfs.lstat_ns",
            Layers.ns_per_call (fun (path, _) -> Idbox_vfs.Fs.lstat fs ~uid:owner path) checks );
          ("policy.compile_ms", 1e3 *. Layers.median_s (fun () -> Idbox.Policy_compile.compile fs ~uid:owner));
          ( "ring.lookup_ns",
            Layers.ns_per_call
              (fun (_, op) ->
                Idbox_cluster.Ring.lookup ring
                  (Idbox_cluster.Replica.shard_key (Protocol.operation_path op)))
              ops_seen );
          ( "wal.append_sync_us",
            1e-3
            *. Layers.ns_per_call
                 (fun r ->
                   let w = Wal.create () in
                   Wal.append w r;
                   Wal.sync w)
                 records );
          ( "wal.segment_us",
            1e-3 *. Layers.ns_per_call (fun seg -> Wal.parse_segment (Wal.frame_segment seg)) (chunks 16 records) );
          ("wal.checkpoint_ms", 1e3 *. Layers.median_s (fun () -> Server.checkpoint_now first));
          ( "delegation.validate_us",
            1e-3
            *. Layers.ns_per_call
                 (fun chain ->
                   Idbox_auth.Delegation.validate ~trusted:[ World.ca d.D.east ]
                     ~revocations:(Server.revocations first) ~now:(Clock.now d.D.clock)
                     ~holder:(D.principal D.holder_cn) chain)
                 (if write then Array.to_list d.D.chains else []) );
        ]
      in
      (* chirp-read never touches the WAL: report its layer idle. *)
      let tm = if write then tm else List.filter (fun (n, _) -> not (wal_prefix n)) tm in
      let counted = counted_passes * size.ops in
      Some
        {
          Layers.before = !counts0; after = !counts1; counted_ops = counted;
          traced_ops = tr.tr_ops;
          traced_us_per_op = us_per_op tr.tr_s tr.tr_ops;
          untraced_us_per_op = us_per_op tr.un_s tr.un_ops;
          timings = timings tm;
          values =
            [
              ("kernel.self_us", "us", 0.);
              ("router.self_us", "us", Spans.self_us Spans.Op /. float_of_int (max 1 tr.tr_ops));
              ("vfs.entries", "count", float_of_int (List.fold_left ( + ) 0 after.w_entries));
              ("net.busiest_sim_busy_us_per_op", "us", Int64.to_float !busiest /. 1e3 /. float_of_int counted);
              ("replica.sim_busy_us_per_op", "us", Int64.to_float !replica_busy /. 1e3 /. float_of_int counted);
            ];
        }
    end
  in
  {
    phase; sim_us; sim_capacity = !capacity; failed = st.W.failures; failure = st.W.first_failure;
    setup_s; before; after; layers;
  }

(* {1 Reporting} *)

(* Host metrics are at the reference speed; the raw figures are printed
   beside them. *)
let end_to_end o =
  let attempted = o.phase.ph_ops in
  let wins = calibrated_windows o.phase in
  Printf.printf
    "raw host (process CPU time): %.1f ops/s, p50 %.3f us, p90 %.3f us; reference chunk %.2f us \
     (mean of %d), reference speed %.2f us\n"
    (float_of_int o.phase.ph_ops /. o.phase.ph_host_s)
    (quantile o.phase.ph_window_us 0.5) (quantile o.phase.ph_window_us 0.9)
    (o.phase.ph_ref_s *. 1e6 /. float_of_int (max 1 o.phase.ph_ref_chunks))
    o.phase.ph_ref_chunks calib_ref_us;
  [
    metric "ops_per_s" "ops/s" (float_of_int o.phase.ph_ops /. calibrated_host_s o.phase);
    metric "host_us_per_op.p50" "us" (quantile wins 0.5);
    metric "host_us_per_op.p90" "us" (quantile wins 0.9);
    metric "sim_us.p50" "us" (quantile o.sim_us 0.5);
    metric "sim_us.p99" "us" (quantile o.sim_us 0.99);
    metric "sim_capacity_ops_per_s" "ops/s" o.sim_capacity;
    metric "ok_frac" "fraction" (float_of_int (attempted - o.failed) /. float_of_int attempted);
    metric "setup_s" "s" o.setup_s;
    metric "peak_heap_mb" "MB" (peak_heap_mb ());
  ]

let report a o =
  Printf.printf
    "workload %s seed %d: %d ops in %d passes, %.3f host s (process CPU time), %d windows\n"
    a.workload a.seed o.phase.ph_ops o.phase.ph_passes o.phase.ph_host_s
    (Array.length o.phase.ph_window_us);
  pp_witness "start" o.before;
  pp_witness "end" o.after;
  let moved = stationary ~before:o.before ~after:o.after in
  Option.iter (Printf.printf "not stationary: %s\n") moved;
  Option.iter (Printf.printf "first failure: %s\n") o.failure;
  let metrics =
    match o.layers with
    | None -> end_to_end o
    | Some l ->
      (try Sys.mkdir a.out 0o755 with Sys_error _ -> ());
      let file = Filename.concat a.out ("trace-" ^ a.workload ^ ".json") in
      Spans.write_chrome file;
      Printf.printf "spans: %s; %d traced windows checked, %d failed the 1%% sum\n" file
        !Spans.window_checks !Spans.window_failures;
      Layers.print_bases l;
      Layers.table l
  in
  print_table metrics;
  let correct = o.failed = 0 && moved = None && !Spans.window_failures = 0 in
  print_result ~correct ~attempted:o.phase.ph_ops ~failed:o.failed metrics;
  if not correct then exit 1

let () =
  let a = parse Sys.argv in
  match a.workload with
  | "box-read" -> report a (run_box a)
  | "chirp-read" -> report a (run_chirp a ~write:false)
  | "chirp-write" -> report a (run_chirp a ~write:true)
  | _ -> usage ()
