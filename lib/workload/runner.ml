module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Program = Idbox_kernel.Program
module Clock = Idbox_kernel.Clock
module Box = Idbox.Box
module Kbox = Idbox.Kbox
module Acl = Idbox_acl.Acl
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno
module Principal = Idbox_identity.Principal

type mode =
  | Direct
  | Boxed
  | Kboxed

type measurement = {
  m_app : string;
  m_mode : mode;
  m_runtime_s : float;
  m_syscalls : int;
  m_trapped : int;
  m_exit_code : int;
}

type comparison = {
  c_app : string;
  c_direct_s : float;
  c_boxed_s : float;
  c_overhead_pct : float;
  c_paper_pct : float;
}

let mode_name = function
  | Direct -> "direct"
  | Boxed -> "boxed"
  | Kboxed -> "in-kernel box"

let visiting_identity = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"

let data_file = "data.bin"
let out_file = "out.bin"
let cc_file = "cc.exe"
let data_blocks = 128 (* 1 MiB staged data file *)

(* The child compiler: header searches, a source read, an object write,
   and some codegen CPU.  Its calls are part of the make workload. *)
let cc_main ~workdir : Program.main =
 fun _args ->
  let data = workdir ^ "/" ^ data_file in
  for _ = 1 to 24 do
    ignore (Libc.stat data)
  done;
  (match Libc.open_file data with
   | Ok fd ->
     ignore (Libc.pread fd ~off:0 ~len:4096);
     ignore (Libc.close fd)
   | Error _ -> ());
  (match
     Libc.open_file ~flags:{ Fs.wronly_create with trunc = false } (workdir ^ "/obj.tmp")
   with
   | Ok fd ->
     ignore (Libc.write fd (String.make 8192 'o'));
     ignore (Libc.close fd)
   | Error _ -> ());
  Libc.compute_us 15_000.;
  0

let workload_main (counts : Spec.counts) ~workdir : Program.main =
 fun _args ->
  let data = workdir ^ "/" ^ data_file in
  let out = workdir ^ "/" ^ out_file in
  let cc = workdir ^ "/" ^ cc_file in
  let block = String.make 8192 'w' in
  let rfd = Libc.check "open data" (Libc.open_file data) in
  let ofd =
    Libc.check "open out" (Libc.open_file ~flags:Fs.wronly_create out)
  in
  (* Interleave the mix in 100 slices so phases overlap as in a real
     run; simulated totals are what matter. *)
  let slices = 100 in
  let per total slice =
    (* Distribute [total] across slices without drift. *)
    (total * (slice + 1) / slices) - (total * slice / slices)
  in
  let woff = ref 0 in
  for slice = 0 to slices - 1 do
    for i = 1 to per counts.Spec.reads_8k slice do
      let blk = (slice + i) mod data_blocks in
      ignore (Libc.check "read8k" (Libc.pread rfd ~off:(blk * 8192) ~len:8192))
    done;
    for _ = 1 to per counts.Spec.writes_8k slice do
      ignore (Libc.check "write8k" (Libc.pwrite ofd ~off:!woff block));
      (* Cycle the output region so the staged file stays bounded. *)
      woff := (!woff + 8192) mod (8192 * 256)
    done;
    for i = 1 to per counts.Spec.metadata slice do
      if i land 1 = 0 then ignore (Libc.check "stat" (Libc.stat data))
      else begin
        let fd = Libc.check "open" (Libc.open_file data) in
        ignore (Libc.check "close" (Libc.close fd))
      end
    done;
    for _ = 1 to per counts.Spec.small_ios slice do
      ignore (Libc.check "smallread" (Libc.pread rfd ~off:0 ~len:64))
    done;
    for _ = 1 to per counts.Spec.spawns slice do
      let pid = Libc.check "spawn cc" (Libc.spawn cc ~args:[ "cc" ]) in
      ignore (Libc.check "wait cc" (Libc.waitpid pid))
    done;
    Libc.compute_us (counts.Spec.compute_ms *. 1000. /. float_of_int slices)
  done;
  ignore (Libc.close rfd);
  ignore (Libc.close ofd);
  0

let fail_errno ctx = function
  | Ok v -> v
  | Error e -> invalid_arg (ctx ^ ": " ^ Errno.message e)

let cc_program_name = "idbox-workload-cc"

let stage_workdir kernel ~owner_uid ~workdir =
  let fs = Kernel.fs kernel in
  fail_errno "stage mkdir" (Fs.mkdir_p fs ~uid:0 workdir);
  fail_errno "stage chown" (Fs.chown fs ~uid:0 ~owner:owner_uid workdir);
  fail_errno "stage data"
    (Fs.write_file fs ~uid:owner_uid (workdir ^ "/" ^ data_file)
       (String.make (data_blocks * 8192) 'd'));
  Program.register cc_program_name (cc_main ~workdir);
  fail_errno "stage cc"
    (Fs.write_file fs ~uid:owner_uid ~mode:0o755 (workdir ^ "/" ^ cc_file)
       (Program.marker cc_program_name))

let finish kernel spec mode pid ~t0 ~calls0 ~trapped0 =
  Kernel.run kernel;
  let stats = Kernel.stats kernel in
  let code =
    match Kernel.exit_code kernel pid with
    | Some code -> code
    | None -> invalid_arg (spec.Spec.w_name ^ ": workload never exited")
  in
  if code <> 0 then
    invalid_arg (Printf.sprintf "%s (%s): exited %d" spec.Spec.w_name
                   (mode_name mode) code);
  {
    m_app = spec.Spec.w_name;
    m_mode = mode;
    m_runtime_s = Clock.to_seconds (Int64.sub (Kernel.now kernel) t0);
    m_syscalls = stats.Kernel.syscalls - calls0;
    m_trapped = stats.Kernel.trapped - trapped0;
    m_exit_code = code;
  }

let run ?cost spec mode ~scale =
  let kernel = Kernel.create ?cost () in
  let operator =
    match Account.add (Kernel.accounts kernel) "operator" with
    | Ok e -> e
    | Error m -> invalid_arg m
  in
  Kernel.refresh_passwd kernel;
  let owner_uid = operator.Account.uid in
  let workdir = "/srv/workload" in
  stage_workdir kernel ~owner_uid ~workdir;
  let counts = spec.Spec.w_counts ~scale in
  let main = workload_main counts ~workdir in
  let stats = Kernel.stats kernel in
  match mode with
  | Direct ->
    let t0 = Kernel.now kernel in
    let calls0 = stats.Kernel.syscalls and trapped0 = stats.Kernel.trapped in
    let pid =
      Kernel.spawn_main kernel ~uid:owner_uid ~cwd:workdir ~main
        ~args:[ spec.Spec.w_name ] ()
    in
    finish kernel spec mode pid ~t0 ~calls0 ~trapped0
  | Boxed ->
    (* The figure apparatus replicates the paper's Parrot, which pays a
       revalidation lstat per check: generation caches stay off here so
       the calibrated overheads keep matching Fig. 4/5. *)
    let box =
      match Box.create kernel ~supervisor_uid:owner_uid ~identity:visiting_identity ~caching:false () with
      | Ok box -> box
      | Error e -> invalid_arg ("box create: " ^ Errno.message e)
    in
    fail_errno "workdir acl"
      (Box.set_acl box ~dir:workdir (Acl.for_owner visiting_identity));
    let t0 = Kernel.now kernel in
    let calls0 = stats.Kernel.syscalls and trapped0 = stats.Kernel.trapped in
    let pid = Box.spawn_main box ~main ~args:[ spec.Spec.w_name ] in
    Box.set_cwd box ~pid workdir;
    finish kernel spec mode pid ~t0 ~calls0 ~trapped0
  | Kboxed ->
    let kbox = Kbox.install kernel ~supervisor_uid:owner_uid ~caching:false () in
    fail_errno "workdir acl"
      (Idbox.Enforce.write_acl (Kbox.enforcer kbox) ~dir:workdir
         (Acl.for_owner visiting_identity));
    let t0 = Kernel.now kernel in
    let calls0 = stats.Kernel.syscalls and trapped0 = stats.Kernel.trapped in
    let pid =
      Kbox.spawn_main kbox ~identity:visiting_identity ~main
        ~args:[ spec.Spec.w_name ]
    in
    (match Kernel.process_view kernel pid with
     | Some view -> view.Idbox_kernel.View.cwd <- workdir
     | None -> ());
    finish kernel spec mode pid ~t0 ~calls0 ~trapped0

let compare_spec spec ~scale =
  let direct = run spec Direct ~scale in
  let boxed = run spec Boxed ~scale in
  {
    c_app = spec.Spec.w_name;
    c_direct_s = direct.m_runtime_s;
    c_boxed_s = boxed.m_runtime_s;
    c_overhead_pct =
      (boxed.m_runtime_s -. direct.m_runtime_s) /. direct.m_runtime_s *. 100.;
    c_paper_pct = spec.Spec.w_paper_overhead_pct;
  }

let fig5b ?(scale = 0.1) () = List.map (fun spec -> compare_spec spec ~scale) Apps.all

let fig6_ablation ?(scale = 0.1) ?(apps = Apps.all) () =
  List.map
    (fun spec ->
      let direct = run spec Direct ~scale in
      let boxed = run spec Boxed ~scale in
      let kboxed = run spec Kboxed ~scale in
      let pct m =
        (m.m_runtime_s -. direct.m_runtime_s) /. direct.m_runtime_s *. 100.
      in
      (spec.Spec.w_name, pct boxed, pct kboxed))
    apps
