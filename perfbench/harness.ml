(* Timing, statistics and output shared by every workload.

   One host clock throughout: process CPU time ([Sys.time], getrusage
   user + system, 1 us resolution).  On a shared machine, time spent
   descheduled then does not read as a slower program.  End-to-end host
   metrics are scaled to a reference speed (see Calibration). *)

let now = Sys.time

(* {1 Quantiles} *)

(* Linear interpolation between closest ranks (R-7), over a copy. *)
let quantile (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

(* {1 Seeded inputs}

   A pass is a fixed multiset of operations over a fixture whose file
   sizes the seed moves by at most 5 %; the seed also chooses the order
   of the operations.  Every seed then does about the same work, and
   run-to-run spread across seeds stays small. *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The draws that build a pass's multiset and fixture. *)
let fixed_rng tag = Random.State.make [| 0x1d80c5; tag |]

(* The seeded order. *)
let order_rng ~seed tag = Random.State.make [| seed; tag |]

(* An endless stream of kinds in exact proportion: each block of
   [sum of weights] draws holds every kind exactly its weight's times,
   in an order drawn from [rng]. *)
let mix rng weights =
  let block = Array.of_list (List.concat_map (fun (w, x) -> List.init w (fun _ -> x)) weights) in
  let pos = ref (Array.length block) in
  fun () ->
    if !pos >= Array.length block then begin
      shuffle rng block;
      pos := 0
    end;
    let x = block.(!pos) in
    incr pos;
    x

(* [n] sizes at the quantiles of a log-uniform distribution on
   [lo, hi], in an order drawn from [rng]. *)
let log_uniform_sizes rng n lo hi =
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  let a =
    Array.init n (fun i ->
        int_of_float (exp (l +. ((float_of_int i +. 0.5) /. float_of_int n *. (h -. l)))))
  in
  shuffle rng a;
  a

(* A size within 5 % of [n], drawn from the seeded [rng]: the seed
   moves every transfer and copy a little, so simulated latencies are
   measured values that differ between seeds, while every seed still
   stores about the same bytes. *)
let jitter rng n = max 1 (int_of_float (float_of_int n *. (0.95 +. Random.State.float rng 0.1)))

(* File [j]'s name, with a seeded tail of 0-31 characters: every call
   that carries the path moves a few bytes with the seed. *)
let file_name rng j = Printf.sprintf "f%02d" j ^ String.make (Random.State.int rng 32) 'x'

(* {1 Calibration}

   On a shared machine the same code runs at different speeds from one
   second to the next, as other tenants load the cores and caches, and
   process CPU time does not remove that: a fixed piece of work took
   1.5-2x as long in slow seconds as in fast ones, within one run and
   between runs.  So the benchmark runs a fixed reference chunk between
   operations and reports host times at a fixed reference speed: a
   span's host time is scaled by [calib_ref_us] over the host time the
   reference chunks around it took.  A change to the program still
   moves the scaled times; a change in machine speed mostly does not.

   The reference uses only the standard library and allocates nothing,
   so it never runs the program's GC: string-keyed lookups in a table of
   4,096 values of 768 B (about 3 MB), three in four among 256 hot keys
   that stay in the core's cache and one in four over the whole table,
   each followed by a copy of the value into a fixed buffer.  Chunk [k]
   does the same lookups in every run. *)

let calib_keys = 4096
let calib_hot = 256
let calib_bytes = 768
let calib_lookups = 128

(* A reference chunk's host time at the reference speed, about its time
   on an uncontended core of a 2-vCPU Xeon virtual machine. *)
let calib_ref_us = 30.

let calib_keys_a, calib_tbl, calib_buf =
  let keys = Array.init calib_keys (fun i -> Printf.sprintf "/calib/d%02d/f%05d" (i mod 64) i) in
  let tbl = Hashtbl.create calib_keys in
  Array.iteri (fun i k -> Hashtbl.replace tbl k (Bytes.make calib_bytes (Char.chr (i land 255)))) keys;
  (keys, tbl, Bytes.create calib_bytes)

let calib_pos = ref 1

let calib_chunk () =
  let acc = ref 0 in
  for i = 1 to calib_lookups do
    calib_pos := ((!calib_pos * 1103515245) + 12345) land 0x3fffffff;
    let r = !calib_pos lsr 8 in
    let k = if i land 3 = 0 then r land (calib_keys - 1) else r land (calib_hot - 1) in
    let v = Hashtbl.find calib_tbl calib_keys_a.(k) in
    Bytes.blit v 0 calib_buf 0 calib_bytes;
    acc := !acc + Char.code (Bytes.unsafe_get calib_buf (!acc land 511))
  done;
  ignore (Sys.opaque_identity !acc)

(* [f ()] and its host seconds at the reference speed.  While [f] runs,
   a profiling timer runs a reference chunk every [calib_tick_s] of
   process CPU time, so the speed is sampled all through [f]; a few
   chunks also run just before and just after it.  The chunks' own time
   is left out of [f]'s. *)
let calib_tick_s = 0.002

let calibrated f =
  let r_in = ref 0. and r_all = ref 0. and n = ref 0 and inside = ref false and busy = ref false in
  let sample () =
    if not !busy then begin
      busy := true;
      let c0 = now () in
      calib_chunk ();
      let c = now () -. c0 in
      r_all := !r_all +. c;
      if !inside then r_in := !r_in +. c;
      incr n;
      busy := false
    end
  in
  for _ = 1 to 8 do
    sample ()
  done;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> sample ()));
  let tick = { Unix.it_interval = calib_tick_s; it_value = calib_tick_s } in
  inside := true;
  let t0 = now () in
  let v =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
        Sys.set_signal Sys.sigprof Sys.Signal_ignore)
      (fun () ->
        ignore (Unix.setitimer Unix.ITIMER_PROF tick);
        f ())
  in
  let dt = now () -. t0 -. !r_in in
  inside := false;
  for _ = 1 to 8 do
    sample ()
  done;
  (v, dt *. calib_ref_us /. (!r_all *. 1e6 /. float_of_int !n))

(* {1 The measured phase}

   A pass is the workload's fixed sequence of [n_ops] operations, split
   into windows of [window] operations, so window [k] of every pass holds
   the same operations in every run with the same seed.  Passes repeat
   until [budget_s] of host time has gone by and at least [min_passes]
   have run.  [step ~pass i] performs operation [i]; [traced k] says
   whether window [k] is traced; [on_window] learns each window's host
   time.  [run_pass windows] runs one pass by calling [windows lo hi] on
   consecutive ranges of it, each from whatever context those ops need
   (by default the whole pass, here). *)

type phase = {
  ph_ops : int;
  ph_passes : int;
  ph_host_s : float;  (** Whole phase, reference chunks excluded. *)
  ph_window_us : float array;  (** Host us per op of each window, in order. *)
  ph_ref_us : float array;  (** Host us of one reference chunk, per window. *)
  ph_ref_chunks : int;
  ph_ref_s : float;  (** Host seconds of all reference chunks. *)
}

let measure ?(on_window = fun ~traced:_ _ -> ()) ?(traced = fun _ -> false)
    ?(min_passes = 1) ?(run_pass = fun windows -> windows 0 (-1)) ?(calib_per_window = 0)
    ~budget_s ~n_ops ~window ~step () =
  let t_start = now () in
  let wins = ref [] and refs = ref [] and ref_s = ref 0. and chunks = ref 0 in
  let passes = ref 0 in
  let index = ref 0 in
  (* Time the windows covering ops [lo, hi) of the current pass.  With
     [calib_per_window] > 0, that many reference chunks run in each
     window, evenly spaced, the last after its last op; the window's
     time leaves them out. *)
  let windows lo hi =
    let hi = if hi < 0 then n_ops else hi in
    let i = ref lo in
    while !i < hi do
      let top = min hi (!i + window) in
      let len = top - !i in
      let tr = traced !index in
      let r = ref 0. and n = ref 0 in
      let t0 = now () in
      for j = !i to top - 1 do
        step ~pass:!passes j;
        if calib_per_window > 0 && (j - !i + 1) * calib_per_window mod len = 0 then begin
          let c0 = now () in
          calib_chunk ();
          r := !r +. (now () -. c0);
          incr n
        end
      done;
      let dt = now () -. t0 -. !r in
      on_window ~traced:tr dt;
      wins := (dt *. 1e6 /. float_of_int len) :: !wins;
      if !n > 0 then refs := (!r *. 1e6 /. float_of_int !n) :: !refs;
      ref_s := !ref_s +. !r;
      chunks := !chunks + !n;
      incr index;
      i := top
    done
  in
  let go = ref true in
  while !go do
    run_pass windows;
    incr passes;
    if !passes >= min_passes && now () -. t_start >= budget_s then go := false
  done;
  {
    ph_ops = !passes * n_ops;
    ph_passes = !passes;
    ph_host_s = now () -. t_start -. !ref_s;
    ph_window_us = Array.of_list (List.rev !wins);
    ph_ref_us = Array.of_list (List.rev !refs);
    ph_ref_chunks = !chunks;
    ph_ref_s = !ref_s;
  }

(* Each window's host us per op at the reference speed, from the chunks
   in that window; the phase's host seconds at the reference speed, from
   all of them.  Without chunks (the traced run), the raw times. *)
let calibrated_windows ph =
  if ph.ph_ref_chunks = 0 then ph.ph_window_us
  else Array.map2 (fun w r -> w *. calib_ref_us /. r) ph.ph_window_us ph.ph_ref_us

let calibrated_host_s ph =
  if ph.ph_ref_chunks = 0 then ph.ph_host_s
  else ph.ph_host_s *. calib_ref_us /. (ph.ph_ref_s *. 1e6 /. float_of_int ph.ph_ref_chunks)

(* {1 Stationarity}

   Four witnesses read before and after the measured phase; a run whose
   state grew while the clock ran measures a different system at the
   end than at the start, so it refuses to report. *)

type witness = {
  w_entries : int list;  (** Namespace entries, one per kernel. *)
  w_sessions : int;  (** Live Chirp sessions (0 on box-read). *)
  w_procs : int;  (** Live processes, summed over kernels. *)
  w_heap_words : int;  (** Major-heap words after a full collection. *)
}

let major_heap_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.heap_words

(* Every name under [/], as root, following no symlinks. *)
let count_entries fs =
  let module Fs = Idbox_vfs.Fs in
  let rec walk path =
    match Fs.readdir fs ~uid:0 path with
    | Error _ -> 0
    | Ok names ->
      List.fold_left
        (fun acc name ->
          if name = "." || name = ".." then acc
          else
            let child = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            let sub =
              match Fs.lstat fs ~uid:0 child with
              | Ok { Fs.st_kind = Idbox_vfs.Inode.Directory; _ } -> walk child
              | _ -> 0
            in
            acc + 1 + sub)
        0 names
  in
  walk "/"

(* Processes not yet exited.  Exited ones stay in the kernel's table
   (nothing reaps a remote exec's children), so the table itself grows
   by a few entries per exec; that growth is bounded by the heap check. *)
let live_processes k =
  let module Kernel = Idbox_kernel.Kernel in
  List.length
    (List.filter
       (fun (pid, _) -> match Kernel.status k pid with `Alive _ -> true | _ -> false)
       (Kernel.process_states k))

let entries_tolerance = 0.01
let heap_tolerance = 0.25

(* The harness's own records (window times, kept spans, captured
   inputs) stay under this many words. *)
let harness_words = 1024 * 1024

(* [None] when stationary, else the reason. *)
let stationary ~before ~after =
  let grew_entries =
    List.exists2
      (fun b a ->
        float_of_int (a - b) > (entries_tolerance *. float_of_int b) +. 2.)
      before.w_entries after.w_entries
  in
  if grew_entries then Some "vfs.entries grew by more than 1%"
  else if after.w_sessions > before.w_sessions then Some "live sessions grew"
  else if after.w_procs > before.w_procs + 2 then Some "process table grew"
  else if
    float_of_int after.w_heap_words
    > (float_of_int before.w_heap_words *. (1. +. heap_tolerance)) +. float_of_int harness_words
  then Some "major heap grew by more than 25% (+ 8 MB of harness records)"
  else None

let pp_witness label w =
  Printf.printf
    "stationarity %-6s vfs.entries=[%s] sessions=%d procs=%d heap_words=%d\n"
    label
    (String.concat "," (List.map string_of_int w.w_entries))
    w.w_sessions w.w_procs w.w_heap_words

(* {1 Output} *)

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_table metrics =
  List.iter
    (fun m -> Printf.printf "  %-36s %16.6f %s\n" m.m_name m.m_value m.m_unit)
    metrics

(* The machine-readable result: always the last line of stdout. *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
             (json_number m.m_value) m.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
