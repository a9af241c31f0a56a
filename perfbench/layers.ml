(* Per-layer metrics for the traced run: counter deltas over the
   counted passes, span self times over the traced windows, and host
   timings of inner layers replayed on inputs the run captured. *)

module Metrics = Idbox_kernel.Metrics
module Kernel = Idbox_kernel.Kernel

(* {1 Counters} *)

type counts = (string, int) Hashtbl.t

let stats_fields (s : Kernel.stats) =
  [
    ("kernel.syscalls", s.Kernel.syscalls);
    ("kernel.trapped", s.Kernel.trapped);
    ("kernel.context_switches", s.Kernel.context_switches);
    ("kernel.delegated", s.Kernel.delegated);
    ("kernel.peek_poke_words", s.Kernel.peek_poke_words);
    ("kernel.channel_bytes", s.Kernel.channel_bytes);
  ]

(* Every counter of the given registries (each counted once) plus the
   kernels' stats, the network's totals and the GC's. *)
let snapshot ~kernels ~registries ~extra : counts =
  let h = Hashtbl.create 256 in
  let add name v =
    Hashtbl.replace h name (v + Option.value ~default:0 (Hashtbl.find_opt h name))
  in
  let seen = ref [] in
  List.iter
    (fun r ->
      if not (List.memq r !seen) then begin
        seen := r :: !seen;
        List.iter (fun c -> add (Metrics.counter_name c) (Metrics.counter_value c)) (Metrics.counters r)
      end)
    registries;
  List.iter (fun k -> List.iter (fun (n, v) -> add n v) (stats_fields (Kernel.stats k))) kernels;
  List.iter (fun (n, v) -> add n v) extra;
  let g = Gc.quick_stat () in
  add "gc.minor_words" (int_of_float g.Gc.minor_words);
  add "gc.major_words" (int_of_float g.Gc.major_words);
  add "gc.major_collections" g.Gc.major_collections;
  h

let delta (before : counts) (after : counts) name =
  Option.value ~default:0 (Hashtbl.find_opt after name)
  - Option.value ~default:0 (Hashtbl.find_opt before name)

(* A (before, after) pair whose difference is the sum of the pairs'. *)
let sum_deltas pairs =
  let sum = Hashtbl.create 256 in
  List.iter
    (fun (b, a) ->
      Hashtbl.iter
        (fun name v ->
          let d = v - Option.value ~default:0 (Hashtbl.find_opt b name) in
          Hashtbl.replace sum name (d + Option.value ~default:0 (Hashtbl.find_opt sum name)))
        a)
    pairs;
  (Hashtbl.create 1, sum)

(* {1 Replays} *)

(* Host ns per call of [f] over [inputs], repeated until at least
   [min_s] of host time has gone by; [0.] with no inputs. *)
let ns_per_call ?(min_s = 0.05) f inputs =
  match inputs with
  | [] -> 0.
  | _ ->
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
    let calls = ref 0 in
    let t0 = Harness.now () in
    while Harness.now () -. t0 < min_s do
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
      calls := !calls + List.length inputs
    done;
    (Harness.now () -. t0) *. 1e9 /. float_of_int !calls

(* Median host seconds of [n] runs of [f]. *)
let median_s ?(n = 3) f =
  Harness.quantile
    (Array.init n (fun _ ->
         let t0 = Harness.now () in
         ignore (Sys.opaque_identity (f ()));
         Harness.now () -. t0))
    0.5

(* Keep at most [cap] captured inputs. *)
type 'a capture = { mutable items : 'a list; mutable n : int; cap : int }

let capture cap = { items = []; n = 0; cap }

let keep c x =
  if c.n < c.cap then begin
    c.items <- x :: c.items;
    c.n <- c.n + 1
  end

(* {1 Assembling the table} *)

type inputs = {
  before : counts;
  after : counts;
  counted_ops : int;  (** Ops between the two snapshots. *)
  traced_ops : int;  (** Ops inside traced windows. *)
  traced_us_per_op : float;
  untraced_us_per_op : float;
  timings : (string * string * float) list;  (** Replayed layer timings. *)
  values : (string * string * float) list;  (** Workload-specific values. *)
}

let ratio hit miss = if hit + miss = 0 then 0. else float_of_int hit /. float_of_int (hit + miss)

let table i =
  let d = delta i.before i.after in
  let per name = float_of_int (d name) /. float_of_int i.counted_ops in
  let span_us n = Spans.self_us n /. float_of_int (max 1 i.traced_ops) in
  let hit_ratio prefix = ratio (d (prefix ^ ".hit")) (d (prefix ^ ".miss")) in
  let m = Harness.metric in
  let bytecode_checks =
    d "kernel.bytecode.hit" + d "kernel.bytecode.stale" + d "kernel.bytecode.fallback"
  in
  let geo_reads =
    d "cluster.geo.read.local" + d "cluster.geo.read.proxy" + d "cluster.geo.read.stale"
  in
  let ships = d "cluster.geo.ship" in
  [
    m "kernel.self_us_per_op" "us" (List.assoc "kernel.self_us" (List.map (fun (a, _, v) -> (a, v)) i.values));
    m "kernel.syscalls_per_op" "1/op" (per "kernel.syscalls");
    m "kernel.context_switches_per_op" "1/op" (per "kernel.context_switches");
    m "box.trap_us_per_op" "us" (span_us Spans.Box_trap);
    m "box.traps_per_op" "1/op" (per "kernel.trapped");
    m "kernel.delegated_per_op" "1/op" (per "kernel.delegated");
    m "kernel.peek_poke_words_per_op" "words/op" (per "kernel.peek_poke_words");
    m "kernel.channel_bytes_per_op" "B/op" (per "kernel.channel_bytes");
    m "enforce.decision.hit_ratio" "fraction" (hit_ratio "enforce.decision");
    m "enforce.name.hit_ratio" "fraction" (hit_ratio "enforce.name");
    m "acl.cache.hit_ratio" "fraction" (hit_ratio "acl.cache");
    m "kernel.bytecode.hit_ratio" "fraction"
      (if bytecode_checks = 0 then 0.
       else float_of_int (d "kernel.bytecode.hit") /. float_of_int bytecode_checks);
    m "kernel.bytecode.recompiles_per_op" "1/op" (per "kernel.bytecode.recompile");
    m "acl.evals_per_op" "1/op" (per "acl.eval");
    m "acl.entries_per_eval" "entries"
      (if d "acl.eval" = 0 then 0.
       else float_of_int (d "acl.eval.entries") /. float_of_int (d "acl.eval"));
    m "chirp.lease.hit_ratio" "fraction" (hit_ratio "chirp.lease");
    m "chirp.retries_per_op" "1/op" (per "chirp.retry");
    m "protocol.bytes_per_op" "B/op" (per "net.bytes");
    m "net.messages_per_op" "1/op" (per "net.messages");
    m "router.self_us_per_op" "us" (List.assoc "router.self_us" (List.map (fun (a, _, v) -> (a, v)) i.values));
    m "cluster.route.cache.hit_ratio" "fraction" (hit_ratio "cluster.route.cache");
    m "server.handle_us_per_op" "us" (span_us Spans.Server_handle);
    m "server.calls_per_op" "1/op"
      (float_of_int (Spans.calls Spans.Server_handle) /. float_of_int (max 1 i.traced_ops));
    m "chirp.wal.appends_per_op" "1/op" (per "chirp.wal.append");
    m "chirp.wal.syncs_per_op" "1/op" (per "chirp.wal.sync");
    m "chirp.checkpoints_per_op" "1/op" (per "chirp.checkpoint");
    m "cluster.replicates_per_op" "1/op" (per "cluster.replicate");
    m "world.tick_us_per_op" "us" (span_us Spans.World_tick);
    m "cluster.repair.sweeps" "count" (float_of_int (d "cluster.repair.sweep"));
    m "chirp.digest.hit_ratio" "fraction" (hit_ratio "chirp.digest");
    m "geo.tick_us_per_op" "us" (span_us Spans.Geo_tick);
    m "cluster.geo.ships_per_op" "1/op" (per "cluster.geo.ship");
    m "geo.records_per_segment" "records"
      (if ships = 0 then 0. else float_of_int (d "cluster.geo.append") /. float_of_int ships);
    m "cluster.geo.read.local_ratio" "fraction"
      (if geo_reads = 0 then 0.
       else float_of_int (d "cluster.geo.read.local") /. float_of_int geo_reads);
    m "enforce.chain.hit_ratio" "fraction" (hit_ratio "enforce.chain");
    m "gc.minor_words_per_op" "words/op" (per "gc.minor_words");
    m "gc.major_words_per_op" "words/op" (per "gc.major_words");
    m "gc.major_collections" "count" (float_of_int (d "gc.major_collections"));
    m "trace.overhead_frac" "fraction"
      ((i.traced_us_per_op -. i.untraced_us_per_op) /. i.untraced_us_per_op);
  ]
  @ List.filter_map
      (fun (n, u, v) -> if n = "kernel.self_us" || n = "router.self_us" then None else Some (m n u v))
      i.values
  @ List.map (fun (n, u, v) -> m n u v) i.timings

(* Each ratio's base counts, printed beside the table. *)
let print_bases i =
  let d = delta i.before i.after in
  Printf.printf "bases: %d counted ops, %d traced ops; " i.counted_ops i.traced_ops;
  List.iter
    (fun p -> Printf.printf "%s %d/%d; " p (d (p ^ ".hit")) (d (p ^ ".hit") + d (p ^ ".miss")))
    [ "enforce.decision"; "enforce.name"; "acl.cache"; "chirp.lease"; "cluster.route.cache";
      "chirp.digest"; "enforce.chain" ];
  Printf.printf "kernel.bytecode %d/%d; acl.eval %d; cluster.geo.ship %d; cluster.geo.read %d/%d\n"
    (d "kernel.bytecode.hit")
    (d "kernel.bytecode.hit" + d "kernel.bytecode.stale" + d "kernel.bytecode.fallback")
    (d "acl.eval") (d "cluster.geo.ship") (d "cluster.geo.read.local")
    (d "cluster.geo.read.local" + d "cluster.geo.read.proxy" + d "cluster.geo.read.stale")
