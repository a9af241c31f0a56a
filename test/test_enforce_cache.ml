(* Property suite for the generation-validated enforcement caches: a
   long-lived cached engine and a long-lived cache-disabled engine watch
   the same kernel while the namespace is mutated at random — files
   written and unlinked, objects renamed, a symlink retargeted, ACLs
   rewritten through the engine, through raw fd-path writes to
   [.__acl], through symlinks in the same and in another directory and
   through opens that do not truncate, ACL files renamed in, unlinked,
   re-created and chmodded, a subdirectory made and removed, a probed
   directory renamed away and another renamed into its place, a
   directory swapped for a symlink to another one, and an ancestor
   symlink retargeted under the probes that go through it.  After every
   mutation, every (path, principal, right) verdict — of the object and
   of the directory — and every canonical path and governing directory
   must be byte-identical across the two engines: the caches may only
   ever change the cost of an answer, never the answer.  Seeded and
   deterministic. *)

module Kernel = Idbox_kernel.Kernel
module Metrics = Idbox_kernel.Metrics
module Enforce = Idbox.Enforce
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Syscall = Idbox_kernel.Syscall
module Errno = Idbox_vfs.Errno

(* CI reruns the storm under extra seeds via the same knob the chaos
   suites honour. *)
let seeds =
  let base = [ 1; 7; 42; 2005; 90210 ] in
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try (int_of_string s mod 1_000_000) :: base with _ -> base)
  | None -> base

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"
let jane = Principal.of_string "globus:/O=UnivNowhere/CN=Jane"
let alice = Principal.of_string "kerberos:alice@NOWHERE.EDU"
let identities = [ fred; jane; alice ]
let rights = [ Right.Read; Right.Write; Right.List; Right.Admin; Right.Delete ]

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let dirs = [ "/w/a"; "/w/b"; "/w/c" ]

(* Where a directory goes when it is renamed away, or set aside while
   a symlink takes its name; and a symlink to a directory, which the
   storm retargets under the probes that go through it. *)
let away = "/w/away"
let saved = "/w/saved"
let dir_link = "/w/dl"

(* The probe set deliberately includes objects that may or may not
   exist at any moment, the symlinks (among them the links to ACL
   files), the directories themselves, a subdirectory that comes and
   goes and a child of it, and paths through the directory symlink and
   through the places directories are moved to. *)
let probes =
  ("/w/ln" :: "/w/acl_ln" :: "/w/a/sub" :: "/w/a/sub/f0" :: dirs)
  @ List.concat_map
      (fun d ->
        (d ^ "/acl_ln") :: List.init 3 (fun i -> Printf.sprintf "%s/f%d" d i))
      (dir_link :: dirs)
  @ [ dir_link; dir_link ^ "/sub/f0"; away ^ "/f0"; saved ^ "/f1" ]

(* The directories [check_in_dir] is asked about. *)
let probe_dirs = dirs @ [ "/w"; "/w/a/sub"; dir_link; dir_link ^ "/sub"; away; saved ]

let patterns =
  [ "globus:/O=UnivNowhere/CN=Fred"; "globus:/O=UnivNowhere/*"; "kerberos:*" ]

let random_acl st =
  let n = 1 + Random.State.int st 3 in
  let all = "rwlxad" in
  Acl.of_entries
    (List.init n (fun i ->
         let pattern = List.nth patterns ((i + Random.State.int st 3) mod 3) in
         let k = 1 + Random.State.int st (String.length all - 1) in
         Entry.make ~pattern (Rights.of_string_exn (String.sub all 0 k))))

(* The mutation kinds that can change what an ACL file reads as, or that
   sit next to one without changing it.  Shared with test_policy_compile's
   storm, so both mixes cover them. *)
let acl_mutation_kinds = 7

let acl_mutation st k kind =
  let fs = Kernel.fs k in
  let dir () = List.nth dirs (Random.State.int st 3) in
  let acl_text () = Acl.to_string (random_acl st) in
  let acl_of d = d ^ "/" ^ Enforce.acl_filename in
  match kind with
  | 0 ->
    (* An ACL write through a symlink next to it. *)
    let d = dir () in
    let link = d ^ "/acl_ln" in
    ignore (Fs.unlink fs ~uid:0 link);
    ignore (Fs.symlink fs ~uid:0 ~target:Enforce.acl_filename link);
    ignore (Fs.write_file fs ~uid:0 link (acl_text ()))
  | 1 ->
    (* An ACL write through a symlink in another directory. *)
    ignore (Fs.unlink fs ~uid:0 "/w/acl_ln");
    ignore (Fs.symlink fs ~uid:0 ~target:(acl_of (dir ())) "/w/acl_ln");
    ignore (Fs.write_file fs ~uid:0 "/w/acl_ln" (acl_text ()))
  | 2 ->
    (* An open-for-write without truncation of an existing file, the ACL
       file or a plain one, and a write over its head in place. *)
    let d = dir () in
    let path =
      if Random.State.bool st then acl_of d
      else Printf.sprintf "%s/f%d" d (Random.State.int st 3)
    in
    let flags =
      { Fs.rd = false; wr = true; creat = false; excl = false; trunc = false;
        append = false }
    in
    let root = Kernel.make_view k ~uid:0 () in
    (match Kernel.execute k root (Syscall.Open { path; flags; mode = 0 }) with
     | Ok (Syscall.Int fd) ->
       ignore (Kernel.execute k root (Syscall.Write { fd; data = acl_text () }));
       ignore (Kernel.execute k root (Syscall.Close fd))
     | Ok _ | Error _ -> ())
  | 3 ->
    (* A plain file renamed onto the ACL file and back. *)
    let d = dir () in
    let f = Printf.sprintf "%s/f%d" d (Random.State.int st 3) in
    ignore (Fs.rename fs ~uid:0 ~src:f ~dst:(acl_of d));
    ignore (Fs.rename fs ~uid:0 ~src:(acl_of d) ~dst:f)
  | 4 ->
    (* The ACL file unlinked and re-created. *)
    let d = dir () in
    ignore (Fs.unlink fs ~uid:0 (acl_of d));
    ignore (Fs.write_file fs ~uid:0 (acl_of d) (acl_text ()))
  | 5 ->
    (* A subdirectory made or removed. *)
    if Fs.exists fs ~uid:0 "/w/a/sub" then ignore (Fs.rmdir fs ~uid:0 "/w/a/sub")
    else ignore (Fs.mkdir fs ~uid:0 ~mode:0o755 "/w/a/sub")
  | _ ->
    let mode = List.nth [ 0o600; 0o644; 0o000 ] (Random.State.int st 3) in
    ignore (Fs.chmod fs ~uid:0 ~mode (acl_of (dir ())))

let setup () =
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  (* Bytecode pinned off on both: this suite proves the name and ACL
     caches coherent on their own (test_policy_compile covers the
     compiled tier with the same harness shape). *)
  let cached = Enforce.create ~bytecode:false k ~supervisor:sup () in
  let uncached = Enforce.create ~caching:false k ~supervisor:sup () in
  List.iter
    (fun d ->
      ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 d);
      ok "seed file" (Fs.write_file (Kernel.fs k) ~uid:0 (d ^ "/f0") "seed"))
    dirs;
  ok "acl a"
    (Enforce.write_acl cached ~dir:"/w/a"
       (Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=UnivNowhere/*"
              (Rights.of_string_exn "rwl") ]));
  ok "symlink" (Fs.symlink (Kernel.fs k) ~uid:0 ~target:"/w/a/f0" "/w/ln");
  ok "dir symlink" (Fs.symlink (Kernel.fs k) ~uid:0 ~target:"a" dir_link);
  (k, cached, uncached)

let show = function
  | Ok () -> "ok"
  | Error e -> Errno.to_string e

let verdict e identity path right = show (Enforce.check_object e ~identity ~path right)

let dir_verdict e identity dir right =
  show (Enforce.check_in_dir e ~identity ~dir right)

let compare_engines cached uncached ~seed ~step =
  let agree what path want got =
    if not (String.equal want got) then
      Alcotest.failf "seed %d step %d: %s %s: uncached=%s cached=%s" seed step
        what path want got
  in
  let each_question ask paths =
    List.iter
      (fun path ->
        List.iter
          (fun identity ->
            List.iter
              (fun right ->
                agree
                  (Printf.sprintf "%s %c" (Principal.to_string identity)
                     (Right.to_char right))
                  path (ask uncached identity path right)
                  (ask cached identity path right))
              rights)
          identities)
      paths
  in
  each_question verdict probes;
  each_question dir_verdict probe_dirs;
  List.iter
    (fun path ->
      agree "canonical parents" path
        (Enforce.canonical_parents uncached path)
        (Enforce.canonical_parents cached path);
      agree "governing dir" path
        (Enforce.governing_dir uncached path)
        (Enforce.governing_dir cached path))
    probes

(* The moves a kept directory inode must survive: a path that resolved
   to one directory inode in some generation resolves to another, or to
   a symlink, in a later one. *)
let directory_move st k =
  let fs = Kernel.fs k in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let kind path =
    match Fs.lstat fs ~uid:0 path with
    | Ok st -> Some st.Fs.st_kind
    | Error _ -> None
  in
  let is_dir path = kind path = Some Idbox_vfs.Inode.Directory in
  match Random.State.int st 3 with
  | 0 -> (
    (* A probed directory renamed away, or another directory (or the one
       renamed away) renamed into its place. *)
    match List.filter (fun d -> kind d = None) dirs with
    | [] -> if not (is_dir away) then ignore (Fs.rename fs ~uid:0 ~src:(pick dirs) ~dst:away)
    | hole :: _ ->
      let movable = List.filter is_dir (away :: dirs) in
      if movable <> [] then ignore (Fs.rename fs ~uid:0 ~src:(pick movable) ~dst:hole))
  | 1 -> (
    (* A directory swapped for a symlink to another directory, or the
       swap undone. *)
    let d = pick dirs in
    match kind d with
    | Some Idbox_vfs.Inode.Symlink ->
      ignore (Fs.unlink fs ~uid:0 d);
      if is_dir saved then ignore (Fs.rename fs ~uid:0 ~src:saved ~dst:d)
    | Some Idbox_vfs.Inode.Directory when kind saved = None ->
      ignore (Fs.rename fs ~uid:0 ~src:d ~dst:saved);
      let target = pick (List.filter (fun o -> not (String.equal o d)) dirs) in
      ignore (Fs.symlink fs ~uid:0 ~target d)
    | Some _ | None -> ())
  | _ ->
    (* The ancestor symlink retargeted: absolute, relative, through
       "..", into a subdirectory, or at nothing. *)
    ignore (Fs.unlink fs ~uid:0 dir_link);
    ignore
      (Fs.symlink fs ~uid:0
         ~target:(pick [ "a"; "/w/b"; "c/../a"; "a/sub"; "/w/c"; "missing"; "saved" ])
         dir_link)

let mutate st k cached =
  let fs = Kernel.fs k in
  let dir () = List.nth dirs (Random.State.int st 3) in
  let file () = Printf.sprintf "%s/f%d" (dir ()) (Random.State.int st 3) in
  match Random.State.int st (10 + acl_mutation_kinds) with
  | 0 -> ignore (Fs.write_file fs ~uid:0 (file ()) "data")
  | 1 -> ignore (Fs.unlink fs ~uid:0 (file ()))
  | 2 -> ignore (Fs.rename fs ~uid:0 ~src:(file ()) ~dst:(file ()))
  | 3 ->
    (* Retarget the symlink: the governing directory of /w/ln moves. *)
    ignore (Fs.unlink fs ~uid:0 "/w/ln");
    ignore (Fs.symlink fs ~uid:0 ~target:(file ()) "/w/ln")
  | 4 ->
    (* ACL rewrite through the engine (primes + invalidates). *)
    ignore (Enforce.write_acl cached ~dir:(dir ()) (random_acl st))
  | 5 ->
    (* ACL rewrite behind the engine's back, through the raw fd write
       path — exactly what the .__acl open-for-write watch catches. *)
    let d = dir () in
    ignore
      (Fs.write_file fs ~uid:0
         (d ^ "/" ^ Enforce.acl_filename)
         (Acl.to_string (random_acl st)))
  | 6 ->
    let mode = if Random.State.bool st then 0o755 else 0o700 in
    ignore (Fs.chmod fs ~uid:0 ~mode (file ()))
  | 7 | 8 | 9 -> directory_move st k
  | n -> acl_mutation st k (n - 10)

let coherent_under_mutation () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let k, cached, uncached = setup () in
      compare_engines cached uncached ~seed ~step:(-1);
      for step = 0 to 79 do
        mutate st k cached;
        compare_engines cached uncached ~seed ~step
      done;
      let value name = Metrics.counter_value_of (Kernel.metrics k) name in
      if value "enforce.name.hit" = 0 then
        Alcotest.failf "seed %d: name cache never hit" seed;
      if value "acl.cache.hit" = 0 then
        Alcotest.failf "seed %d: ACL cache never hit" seed)
    seeds

(* The perf contract itself: a warm check — a name-cache hit, then an
   ACL-cache hit — makes zero delegated syscalls, the whole point of
   generation validation. *)
let warm_hit_is_free () =
  let k, cached, _ = setup () in
  ignore (Enforce.check_object cached ~identity:fred ~path:"/w/a/f0" Right.Read);
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  let d0 = (Kernel.stats k).Kernel.delegated in
  let name0 = value "enforce.name.hit" and acl0 = value "acl.cache.hit" in
  (match Enforce.check_object cached ~identity:fred ~path:"/w/a/f0" Right.Read with
   | Ok () -> ()
   | Error e -> Alcotest.failf "warm check: %s" (Errno.to_string e));
  Alcotest.(check int)
    "zero delegated syscalls on the warm hit" 0
    ((Kernel.stats k).Kernel.delegated - d0);
  Alcotest.(check int) "name cache hit" (name0 + 1) (value "enforce.name.hit");
  Alcotest.(check int) "acl cache hit" (acl0 + 1) (value "acl.cache.hit")

(* The ACL cache keys on ACL changes only: after a content write to
   another file in the directory, the next check there is still a name
   hit and an ACL hit, with zero delegated syscalls. *)
let content_write_keeps_acl () =
  let k, cached, _ = setup () in
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  let check () =
    match Enforce.check_object cached ~identity:fred ~path:"/w/a/f0" Right.Read with
    | Ok () -> ()
    | Error e -> Alcotest.failf "check: %s" (Errno.to_string e)
  in
  ok "second file" (Fs.write_file (Kernel.fs k) ~uid:0 "/w/a/f1" "x");
  check ();
  ok "content write" (Fs.write_file (Kernel.fs k) ~uid:0 "/w/a/f1" "more");
  let d0 = (Kernel.stats k).Kernel.delegated in
  let acl0 = value "acl.cache.hit" and miss0 = value "acl.cache.miss" in
  check ();
  Alcotest.(check int)
    "zero delegated syscalls after a content write" 0
    ((Kernel.stats k).Kernel.delegated - d0);
  Alcotest.(check int) "acl cache hit" (acl0 + 1) (value "acl.cache.hit");
  Alcotest.(check int) "no acl cache miss" miss0 (value "acl.cache.miss")

(* The engine's tables are bounded: a stream of distinct paths — as a
   visitor or a Chirp client can send — grows no table past its
   capacity, and every verdict still matches the uncached engine's.
   Unbounded tables grow by about 23 words per probe of this stream
   (2.3 M words over the run), bounded ones peak near 150 k, so the
   1 M limit tells the two apart.  Probes cover the name cache and
   canonical memo (objects in one ACL'd directory), the ACL cache
   (objects in distinct missing directories) and [check_in_dir]. *)
let bounded_under_distinct_probes () =
  let k, cached, uncached = setup () in
  let footprint () = Obj.reachable_words (Obj.repr cached) in
  let base = footprint () in
  let peak = ref base in
  for i = 0 to 99_999 do
    let want, got =
      match i mod 3 with
      | 0 ->
        let path = Printf.sprintf "/w/a/nx%d" i in
        (verdict uncached fred path Right.Read, verdict cached fred path Right.Read)
      | 1 ->
        let path = Printf.sprintf "/w/nd%d/f" i in
        (verdict uncached jane path Right.List, verdict cached jane path Right.List)
      | _ ->
        let dir = Printf.sprintf "/w/nd%d" i in
        (dir_verdict uncached alice dir Right.Write, dir_verdict cached alice dir Right.Write)
    in
    if not (String.equal want got) then
      Alcotest.failf "probe %d: uncached=%s cached=%s" i want got;
    if i mod 10_000 = 9_999 then peak := max !peak (footprint ())
  done;
  let grown = !peak - base in
  if grown > 1_000_000 then
    Alcotest.failf "engine grew by %d words over 100,000 distinct probes" grown;
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  List.iter
    (fun name ->
      if value name = 0 then Alcotest.failf "%s: no eviction counted" name)
    [ "enforce.name.evict"; "enforce.canon.evict"; "acl.cache.evict" ]

let suite =
  [
    Alcotest.test_case "cached = uncached under random mutation" `Quick
      coherent_under_mutation;
    Alcotest.test_case "warm hit: zero delegated syscalls" `Quick
      warm_hit_is_free;
    Alcotest.test_case "content write keeps the cached ACL" `Quick
      content_write_keeps_acl;
    Alcotest.test_case "distinct probes: bounded tables, same verdicts" `Quick
      bounded_under_distinct_probes;
  ]
