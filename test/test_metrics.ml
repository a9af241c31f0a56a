(* The metrics registry and trace ring: histogram percentiles, ring
   wraparound, counter saturation, and the JSON renders. *)

module Metrics = Idbox_kernel.Metrics
module Trace = Idbox_kernel.Trace

(* --- counters -------------------------------------------------------- *)

let counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a" in
  Alcotest.(check int) "fresh" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "42" 42 (Metrics.counter_value c);
  Alcotest.(check int) "by name" 42 (Metrics.counter_value_of m "a");
  Alcotest.(check int) "unknown name" 0 (Metrics.counter_value_of m "zzz");
  (* Get-or-create returns the same handle. *)
  Metrics.incr (Metrics.counter m "a");
  Alcotest.(check int) "shared" 43 (Metrics.counter_value c)

let counter_saturates () =
  let m = Metrics.create () in
  let c = Metrics.counter m "sat" in
  Metrics.add c max_int;
  Metrics.incr c;
  Alcotest.(check int) "pinned at max_int" max_int (Metrics.counter_value c);
  Metrics.add c max_int;
  Alcotest.(check int) "still pinned" max_int (Metrics.counter_value c);
  (* Negative and zero deltas are ignored, not subtracted. *)
  let d = Metrics.counter m "mono" in
  Metrics.add d 5;
  Metrics.add d (-3);
  Metrics.add d 0;
  Alcotest.(check int) "monotonic" 5 (Metrics.counter_value d)

(* --- histograms ------------------------------------------------------ *)

let histogram_basics () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  Alcotest.(check int) "empty count" 0 (Metrics.count h);
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Metrics.percentile h 50.0);
  List.iter (Metrics.observe h) [ 100; 200; 300 ];
  Alcotest.(check int) "count" 3 (Metrics.count h);
  Alcotest.(check int) "sum" 600 (Metrics.sum_ns h);
  Alcotest.(check int) "max" 300 (Metrics.max_ns h);
  Alcotest.(check (float 0.01)) "mean" 200.0 (Metrics.mean_ns h);
  Metrics.observe h (-7);
  Alcotest.(check int) "negative clamps to 0" 4 (Metrics.count h);
  Alcotest.(check int) "sum unchanged" 600 (Metrics.sum_ns h)

let histogram_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "p" in
  (* 90 fast samples in [128,256) and 10 slow in [65536,131072): p50
     must land in the fast bucket, p95/p99 in the slow one.  Log-scale
     buckets report the geometric centre 1.5 * 2^i. *)
  for _ = 1 to 90 do
    Metrics.observe h 130
  done;
  for _ = 1 to 10 do
    Metrics.observe h 70_000
  done;
  Alcotest.(check (float 0.01)) "p50 in fast bucket" (1.5 *. 128.0)
    (Metrics.percentile h 50.0);
  Alcotest.(check (float 0.01)) "p90 still fast" (1.5 *. 128.0)
    (Metrics.percentile h 90.0);
  Alcotest.(check (float 0.01)) "p95 slow" (1.5 *. 65536.0)
    (Metrics.percentile h 95.0);
  Alcotest.(check (float 0.01)) "p99 slow" (1.5 *. 65536.0)
    (Metrics.percentile h 99.0);
  (* Out-of-range p clamps rather than raising. *)
  Alcotest.(check (float 0.01)) "p>100 = max bucket" (1.5 *. 65536.0)
    (Metrics.percentile h 250.0)

let histogram_tiny_values () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "tiny" in
  Metrics.observe h 0;
  Metrics.observe h 1;
  Alcotest.(check (float 0.01)) "bucket 0 reports 1.0" 1.0
    (Metrics.percentile h 99.0);
  Metrics.observe_ns h 2L;
  Alcotest.(check int) "int64 entry point" 3 (Metrics.count h)

let histogram_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "edge" in
  (* An empty histogram renders a stable, finite JSON object — no NaN
     percentiles, no division by a zero count. *)
  Alcotest.(check string) "empty histogram JSON"
    "{\"count\":0,\"sum_ns\":0,\"max_ns\":0,\"mean_ns\":0.0,\"p50_ns\":0.0,\"p95_ns\":0.0,\"p99_ns\":0.0}"
    (Metrics.histogram_json h);
  (* A zero-duration sample lands in bucket 0, inside the table. *)
  Metrics.observe_ns h 0L;
  Alcotest.(check (float 0.01)) "zero duration in bucket 0" 1.0
    (Metrics.percentile h 99.0);
  (* A negative int64 clamps to 0 instead of indexing below the table. *)
  Metrics.observe_ns h (-5L);
  Alcotest.(check int) "negative counted, clamped" 2 (Metrics.count h);
  Alcotest.(check int) "sum untouched by clamp" 0 (Metrics.sum_ns h);
  (* A duration beyond the int range saturates into the top bucket —
     it must not wrap negative and land silently in bucket 0. *)
  Metrics.observe_ns h Int64.max_int;
  Alcotest.(check int) "saturates at max_int" max_int (Metrics.max_ns h);
  let p = Metrics.percentile h 99.9 in
  Alcotest.(check bool) "tail lands in a defined bucket" true
    (p > 1.0 && Float.is_finite p);
  Alcotest.(check bool) "render survives extremes" true
    (String.length (Metrics.histogram_json h) > 0)

(* --- registry + JSON ------------------------------------------------- *)

let registry_json () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "b.count") 2;
  Metrics.add (Metrics.counter m "a.count") 1;
  Metrics.observe (Metrics.histogram m "lat") 100;
  let json = Metrics.to_json m in
  (* Keys come out sorted, so the render is deterministic. *)
  Alcotest.(check string)
    "deterministic render"
    "{\"counters\":{\"a.count\":1,\"b.count\":2},\"histograms\":{\"lat\":{\"count\":1,\"sum_ns\":100,\"max_ns\":100,\"mean_ns\":100.0,\"p50_ns\":96.0,\"p95_ns\":96.0,\"p99_ns\":96.0}}}"
    json;
  Metrics.reset m;
  Alcotest.(check string) "reset empties"
    "{\"counters\":{},\"histograms\":{}}" (Metrics.to_json m)

let json_escaping () =
  Alcotest.(check string) "quotes and control chars" "a\\\"b\\\\c\\n\\u0001"
    (Metrics.escape_json "a\"b\\c\n\001")

(* --- trace ring ------------------------------------------------------ *)

let emit ring i =
  Trace.span ring ~time:(Int64.of_int (i * 10)) ~pid:i ~identity:"unix:alice"
    ~syscall:"open" ~verdict:"ok" ~cost_ns:5L

let ring_wraparound () =
  let ring = Trace.ring ~capacity:4 () in
  Alcotest.(check int) "empty length" 0 (Trace.length ring);
  for i = 0 to 9 do
    emit ring i
  done;
  Alcotest.(check int) "total counts all" 10 (Trace.total ring);
  Alcotest.(check int) "length capped" 4 (Trace.length ring);
  Alcotest.(check int) "dropped" 6 (Trace.dropped ring);
  (* Oldest-first iteration yields the last [capacity] spans. *)
  let seqs = List.map (fun s -> s.Trace.sp_seq) (Trace.to_list ring) in
  Alcotest.(check (list int)) "oldest retained first" [ 6; 7; 8; 9 ] seqs

let ring_before_wrap () =
  let ring = Trace.ring ~capacity:8 () in
  for i = 0 to 2 do
    emit ring i
  done;
  let seqs = List.map (fun s -> s.Trace.sp_seq) (Trace.to_list ring) in
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2 ] seqs;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ring);
  Trace.reset ring;
  Alcotest.(check int) "reset" 0 (Trace.total ring)

let ring_json () =
  let ring = Trace.ring ~capacity:2 () in
  Trace.span ring ~time:7L ~pid:3 ~identity:"g:\"x\"" ~syscall:"open"
    ~verdict:"EACCES" ~cost_ns:11L;
  Alcotest.(check string) "span json"
    "{\"capacity\":2,\"total\":1,\"dropped\":0,\"spans\":[{\"seq\":0,\"time_ns\":7,\"pid\":3,\"identity\":\"g:\\\"x\\\"\",\"syscall\":\"open\",\"verdict\":\"EACCES\",\"cost_ns\":11}]}"
    (Trace.to_json ring)

(* The ring keeps columns and builds records when read; a reference
   that keeps every span as a record must read the same.  Over a seeded
   stream — capacities from 1 to 9 (so most runs wrap), resets part-way,
   time and cost over the whole int64 range, strings that need JSON
   escaping — the retained spans, their [sp_seq], the counts and the
   JSON render all match. *)
let ring_matches_record_reference () =
  let pool = [| "unix:alice"; "g:\"x\""; "-"; "open"; "stat"; "ok"; "EACCES"; "back\\slash\n" |] in
  let int64s = [| 0L; 7L; 1_000_000_007L; Int64.max_int; Int64.min_int; -1L |] in
  for seed = 1 to 200 do
    let rng = Random.State.make [| seed; 0x7ace |] in
    let capacity = 1 + Random.State.int rng 9 in
    let ring = Trace.ring ~capacity () in
    (* The reference: every span since the last reset, newest first. *)
    let emitted = ref [] in
    let check what =
      let retained =
        List.filteri (fun i _ -> i < capacity) !emitted |> List.rev
      in
      let ctx = Printf.sprintf "seed %d, %s" seed what in
      Alcotest.(check int) (ctx ^ ": total") (List.length !emitted) (Trace.total ring);
      Alcotest.(check int) (ctx ^ ": length") (List.length retained) (Trace.length ring);
      Alcotest.(check int) (ctx ^ ": dropped")
        (List.length !emitted - List.length retained) (Trace.dropped ring);
      Alcotest.(check bool) (ctx ^ ": retained spans") true (Trace.to_list ring = retained);
      Alcotest.(check string) (ctx ^ ": JSON")
        (Printf.sprintf "{\"capacity\":%d,\"total\":%d,\"dropped\":%d,\"spans\":[%s]}"
           capacity (List.length !emitted)
           (List.length !emitted - List.length retained)
           (String.concat "," (List.map Trace.span_json retained)))
        (Trace.to_json ring)
    in
    check "fresh";
    for step = 1 to Random.State.int rng 40 do
      if Random.State.int rng 25 = 0 then begin
        Trace.reset ring;
        emitted := [];
        check (Printf.sprintf "reset at step %d" step)
      end
      else begin
        let pick a = a.(Random.State.int rng (Array.length a)) in
        let s =
          {
            Trace.sp_seq = List.length !emitted;
            sp_time = pick int64s;
            sp_pid = Random.State.int rng 1000 - 10;
            sp_identity = pick pool;
            sp_syscall = pick pool;
            sp_verdict = pick pool;
            sp_cost_ns = pick int64s;
          }
        in
        Trace.span ring ~time:s.sp_time ~pid:s.sp_pid ~identity:s.sp_identity
          ~syscall:s.sp_syscall ~verdict:s.sp_verdict ~cost_ns:s.sp_cost_ns;
        emitted := s :: !emitted;
        check (Printf.sprintf "step %d" step)
      end
    done
  done

(* Recording a span writes the ring's columns in place: 10,000 spans
   allocate nothing on the minor heap. *)
let span_allocates_nothing () =
  let ring = Trace.ring ~capacity:64 () in
  let time = 1_000_000L and cost_ns = 250L in
  (* The first span allocates the columns. *)
  Trace.span ring ~time ~pid:0 ~identity:"unix:alice" ~syscall:"open"
    ~verdict:"ok" ~cost_ns;
  let before = Gc.minor_words () in
  for pid = 1 to 10_000 do
    Trace.span ring ~time ~pid ~identity:"unix:alice" ~syscall:"open"
      ~verdict:"ok" ~cost_ns
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "minor words per span" 0 (int_of_float words / 10_000);
  Alcotest.(check bool) "under one word per hundred spans" true (words < 100.);
  Alcotest.(check int) "spans recorded" 10_001 (Trace.total ring)

(* --- kernel integration ---------------------------------------------- *)

let kernel_records () =
  let module Kernel = Idbox_kernel.Kernel in
  let module Libc = Idbox_kernel.Libc in
  let kernel = Kernel.create () in
  ignore
    (Kernel.spawn_main kernel
       ~main:(fun _ ->
         (match Libc.write_file "/tmp/f" ~contents:"x" with
          | Ok () -> ()
          | Error _ -> ());
         ignore (Libc.read_file "/tmp/f");
         ignore (Libc.read_file "/no/such/file");
         0)
       ~args:[] ());
  Kernel.run kernel;
  let m = Kernel.metrics kernel in
  Alcotest.(check int) "two opens counted, one failed" 3
    (Metrics.counter_value_of m "syscall.open");
  let h = Option.get (Metrics.find_histogram m "syscall.open.ns") in
  Alcotest.(check int) "open latencies observed" 3 (Metrics.count h);
  Alcotest.(check bool) "simulated time charged" true (Metrics.sum_ns h > 0);
  (* Each completed call leaves a span; the failed open carries its
     errno as the verdict. *)
  let ring = Kernel.trace_ring kernel in
  let enoent =
    List.filter
      (fun s -> String.equal s.Trace.sp_verdict "ENOENT")
      (Trace.to_list ring)
  in
  Alcotest.(check int) "failed open traced" 1 (List.length enoent);
  Alcotest.(check bool) "spans retained" true (Trace.length ring > 0)

(* The `idbox stats` export is the operator's one window into the
   counter registry: its workload must touch — and its JSON dump must
   therefore carry — every counter family the instrumented layers
   define, including the delegation subsystem's. *)
let stats_dump_covers_delegation () =
  let kernel = Idbox_report.Report.metrics_workload () in
  let json = Idbox_report.Report.metrics_json kernel in
  let contains needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i =
      i + nn <= nh
      && (String.equal (String.sub json i nn) needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun family ->
      Alcotest.(check bool) ("dump carries " ^ family) true
        (contains ("\"" ^ family ^ "\"")))
    [
      "auth.delegation.mint";
      "auth.delegation.ok";
      "auth.delegation.reject.expired";
      "auth.delegation.reject.revoked";
      "enforce.chain.hit";
      "enforce.chain.miss";
      "chirp.delegated_exec";
      "chirp.revocation.apply";
      "chirp.rpc.delegated";
      "chirp.rpc.revoke";
      "kernel.bytecode.hit";
      "kernel.bytecode.stale";
      "kernel.bytecode.fallback";
      "kernel.bytecode.recompile";
      "kernel.bytecode.reject";
    ]

(* The warm check path must be allocation- and lookup-free in the
   registry: every counter it touches was interned at create time, so a
   steady-state check performs zero by-name registry lookups (the
   [Metrics.lookups] probe counts [counter]/[histogram]/[find_*]
   calls). *)
let warm_check_zero_registry_lookups () =
  let module Kernel = Idbox_kernel.Kernel in
  let module Enforce = Idbox.Enforce in
  let module Fs = Idbox_vfs.Fs in
  let module Acl = Idbox_acl.Acl in
  let module Entry = Idbox_acl.Entry in
  let module Rights = Idbox_acl.Rights in
  let module Right = Idbox_acl.Right in
  let kernel = Kernel.create () in
  let sup = Kernel.make_view kernel ~uid:0 () in
  let e = Enforce.create kernel ~supervisor:sup () in
  (match Fs.mkdir_p (Kernel.fs kernel) ~uid:0 "/d" with
   | Ok () -> ()
   | Error err -> Alcotest.fail (Idbox_vfs.Errno.message err));
  (match
     Enforce.write_acl e ~dir:"/d"
       (Idbox_acl.Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=UnivNowhere/CN=Fred"
              (Rights.of_string_exn "rl") ])
   with
   | Ok () -> ()
   | Error err -> Alcotest.fail (Idbox_vfs.Errno.message err));
  let fred = Idbox_identity.Principal.of_string "globus:/O=UnivNowhere/CN=Fred" in
  let check () =
    ignore (Enforce.check_object e ~identity:fred ~path:"/d/blob" Right.Read)
  in
  check ();  (* prime: compile + first answers *)
  let m = Kernel.metrics kernel in
  let l0 = Metrics.lookups m in
  for _ = 1 to 100 do
    check ()
  done;
  Alcotest.(check int) "zero registry lookups across 100 warm checks" 0
    (Metrics.lookups m - l0)

(* The Chirp read path holds its counter handles too: once a route, a
   session and a lease are warm, neither the network's registry nor the
   members' kernel registry sees a by-name lookup, whether the read is
   served from the client's lease ([stat]) or crosses the network to a
   server and its enforcement engine ([get]). *)
let warm_chirp_reads_zero_registry_lookups () =
  let module Kernel = Idbox_kernel.Kernel in
  let module Network = Idbox_net.Network in
  let module World = Idbox_cluster.World in
  let module Router = Idbox_cluster.Router in
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what (Idbox_vfs.Errno.to_string e)
  in
  let w = World.create () in
  List.iter
    (fun host ->
      match World.add_node w ~host with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ];
  World.settle w;
  let r =
    match World.connect w ~credentials:[ World.issue w "Alice" ] with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  ok "mkdir" (Router.mkdir r "/d");
  ok "put" (Router.put r ~path:"/d/f" ~data:"contents");
  let read () =
    ignore (ok "stat" (Router.stat r "/d/f"));
    Alcotest.(check string) "get" "contents" (ok "get" (Router.get r "/d/f"))
  in
  (* The first read takes the lease and the second hits it: every
     counter the loop touches has been counted once. *)
  read ();
  read ();
  let registries = [ Network.metrics (World.net w); Kernel.metrics (World.kernel w) ] in
  let before = List.map Metrics.lookups registries in
  for _ = 1 to 100 do
    read ()
  done;
  Alcotest.(check (list int)) "zero registry lookups across 100 warm stat + get"
    before (List.map Metrics.lookups registries)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick counter_basics;
    Alcotest.test_case "counter saturates at max_int" `Quick counter_saturates;
    Alcotest.test_case "histogram basics" `Quick histogram_basics;
    Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles;
    Alcotest.test_case "histogram tiny values" `Quick histogram_tiny_values;
    Alcotest.test_case "histogram edge samples" `Quick histogram_edges;
    Alcotest.test_case "registry JSON deterministic" `Quick registry_json;
    Alcotest.test_case "JSON escaping" `Quick json_escaping;
    Alcotest.test_case "ring wraparound" `Quick ring_wraparound;
    Alcotest.test_case "ring before wrap" `Quick ring_before_wrap;
    Alcotest.test_case "ring JSON" `Quick ring_json;
    Alcotest.test_case "column ring matches a record reference" `Quick
      ring_matches_record_reference;
    Alcotest.test_case "span allocates no minor words" `Quick span_allocates_nothing;
    Alcotest.test_case "kernel records syscall metrics" `Quick kernel_records;
    Alcotest.test_case "warm check: zero registry lookups" `Quick
      warm_check_zero_registry_lookups;
    Alcotest.test_case "stats dump covers the delegation counters" `Quick
      stats_dump_covers_delegation;
    Alcotest.test_case "warm Chirp reads: zero registry lookups" `Quick
      warm_chirp_reads_zero_registry_lookups;
  ]
