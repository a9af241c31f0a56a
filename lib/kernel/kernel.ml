module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno
module Perm = Idbox_vfs.Perm

type stats = {
  mutable syscalls : int;
  mutable trapped : int;
  mutable context_switches : int;
  mutable delegated : int;
  mutable peek_poke_words : int;
  mutable channel_bytes : int;
  mutable spawns : int;
}

type security_hook = pid:int -> View.t -> Syscall.request -> Sysent.verdict

type exec_outcome =
  | Done of Syscall.result
  | Blocks
  | Exits of int

type t = {
  k_clock : Clock.t;
  k_fs : Fs.t;
  k_accounts : Account.t;
  k_cost : Cost.t;
  k_stats : stats;
  k_metrics : Metrics.t;
  k_trace : Trace.ring;
  procs : (int, Proc.t) Hashtbl.t;
  runq : int Queue.t;
  mutable next_pid : int;
  mutable security : security_hook option;
  mutable identity_of : (int -> string option) option;
  pipe_waiters : (int, int list ref) Hashtbl.t;
      (* pipe ino -> pids blocked reading it *)
  mutable sysent_tbl : (Proc.t, exec_outcome) Sysent.entry array;
      (* the dispatch table; built lazily because its handlers close
         over [t] ([[||]] = not built yet) *)
  parked : (int, Syscall.result Sysent.sysmsg) Hashtbl.t;
      (* pid -> the sysmsg of its parked (blocking) invocation; a fiber
         has at most one syscall in flight, so pid is the right key *)
  mutable k_policy : Policy.t option;
      (* the installed compiled-policy program consulted at syscall
         entry, if any (see Policy); owned by the enforcement engine *)
  mutable sc_counters : Metrics.counter array;
      (* per-syscall counter/histogram handles indexed by syscall
         number, interned when the sysent table is built: the dispatch
         path must not pay a string-keyed registry lookup per call *)
  mutable sc_hists : Metrics.histogram array;
  c_sysmsg_parked : Metrics.counter;
  c_sysmsg_completed : Metrics.counter;
  c_sysmsg_late : Metrics.counter;
}

let clock t = t.k_clock
let now t = Clock.now t.k_clock
let fs t = t.k_fs
let accounts t = t.k_accounts
let cost t = t.k_cost
let stats t = t.k_stats
let metrics t = t.k_metrics
let trace_ring t = t.k_trace

let charge t ns = Clock.advance t.k_clock ns

let fail_errno ctx = function
  | Ok _ -> ()
  | Error e -> invalid_arg (ctx ^ ": " ^ Errno.to_string e)

let refresh_passwd t =
  Fs.write_file t.k_fs ~uid:0 ~mode:0o644 "/etc/passwd"
    (Account.render_passwd t.k_accounts)
  |> fail_errno "Kernel.refresh_passwd"

let create ?(cost = Cost.default) ?clock () =
  let k_clock = match clock with Some c -> c | None -> Clock.create () in
  let k_fs = Fs.create ~clock:(Clock.reading k_clock) () in
  let k_accounts = Account.create () in
  let k_metrics = Metrics.create () in
  let t =
    {
      k_clock;
      k_fs;
      k_accounts;
      k_cost = cost;
      k_stats =
        {
          syscalls = 0;
          trapped = 0;
          context_switches = 0;
          delegated = 0;
          peek_poke_words = 0;
          channel_bytes = 0;
          spawns = 0;
        };
      k_metrics;
      k_trace = Trace.ring ();
      procs = Hashtbl.create 32;
      runq = Queue.create ();
      next_pid = 1;
      security = None;
      identity_of = None;
      pipe_waiters = Hashtbl.create 8;
      sysent_tbl = [||];
      parked = Hashtbl.create 8;
      k_policy = None;
      sc_counters = [||];
      sc_hists = [||];
      c_sysmsg_parked = Metrics.counter k_metrics "kernel.sysmsg.parked";
      c_sysmsg_completed = Metrics.counter k_metrics "kernel.sysmsg.completed";
      c_sysmsg_late = Metrics.counter k_metrics "kernel.sysmsg.late";
    }
  in
  fail_errno "Kernel.create" (Fs.mkdir_p k_fs ~uid:0 "/etc");
  fail_errno "Kernel.create" (Fs.mkdir_p k_fs ~uid:0 "/home");
  fail_errno "Kernel.create" (Fs.mkdir_p k_fs ~uid:0 "/bin");
  fail_errno "Kernel.create" (Fs.mkdir_p k_fs ~uid:0 ~mode:0o777 "/tmp");
  refresh_passwd t;
  t

let add_user t name =
  match Account.add t.k_accounts name with
  | Error _ as e -> e
  | Ok entry ->
    let ( let* ) r f =
      match r with Ok _ -> f () | Error e -> Error (Errno.message e)
    in
    let result =
      let* () = Fs.mkdir_p t.k_fs ~uid:0 entry.Account.home in
      let* () = Fs.chown t.k_fs ~uid:0 ~owner:entry.Account.uid entry.Account.home in
      let* () = Fs.chmod t.k_fs ~uid:0 ~mode:0o755 entry.Account.home in
      Ok entry
    in
    (match result with
     | Ok _ ->
       refresh_passwd t;
       Ok entry
     | Error _ as e -> e)

let note_peek_poke t ~words =
  t.k_stats.peek_poke_words <- t.k_stats.peek_poke_words + words;
  charge t (Cost.peek_poke t.k_cost ~words)

let note_channel_copy t ~bytes =
  t.k_stats.channel_bytes <- t.k_stats.channel_bytes + bytes;
  charge t (Cost.copy_bytes t.k_cost bytes)

let make_view t ~uid ?(cwd = "/") () = ignore t; View.make ~uid ~cwd ()

(* ------------------------------------------------------------------ *)
(* File-level system call implementation against a view.              *)
(* ------------------------------------------------------------------ *)

let abs (view : View.t) path = Path.join view.cwd path

(* [impl_file] returns [None] for process-management calls, which need
   PCB context and are handled by [exec_process_call]. *)
let impl_file t (view : View.t) req : Syscall.result option =
  let uid = view.View.uid in
  let some r = Some r in
  match req with
  | Syscall.Getuid -> some (Ok (Syscall.Int uid))
  | Syscall.Get_user_name ->
    some (Ok (Syscall.Str (Account.name_of_uid t.k_accounts uid)))
  | Syscall.Getcwd -> some (Ok (Syscall.Str view.View.cwd))
  | Syscall.Chdir path ->
    let p = abs view path in
    (match Fs.resolve t.k_fs ~uid p with
     | Error e -> some (Error e)
     | Ok inode ->
       if Inode.kind inode <> Inode.Directory then some (Error Errno.ENOTDIR)
       else if not (Perm.check ~uid ~owner:(Inode.uid inode) ~mode:(Inode.mode inode) Perm.X)
       then some (Error Errno.EACCES)
       else begin
         view.View.cwd <- Path.normalize p;
         some (Ok Syscall.Unit)
       end)
  | Syscall.Open { path; flags; mode } ->
    let p = abs view path in
    (match Fs.open_file t.k_fs ~uid ~flags ~mode p with
     | Error e -> some (Error e)
     | Ok inode ->
       let pos = if flags.Fs.append then Inode.size inode else 0 in
       (match Fd_table.alloc view.View.fds { Fd_table.inode; of_path = p; flags; pos } with
        | Error e -> some (Error e)
        | Ok fd -> some (Ok (Syscall.Int fd))))
  | Syscall.Close fd ->
    (match Fd_table.close view.View.fds fd with
     | Error e -> some (Error e)
     | Ok () -> some (Ok Syscall.Unit))
  | Syscall.Read { fd; len } ->
    (match Fd_table.find view.View.fds fd with
     | None -> some (Error Errno.EBADF)
     | Some f ->
       if not f.Fd_table.flags.Fs.rd then some (Error Errno.EBADF)
       else begin
         let data = Inode.read f.Fd_table.inode ~off:f.Fd_table.pos ~len in
         f.Fd_table.pos <- f.Fd_table.pos + String.length data;
         some (Ok (Syscall.Data data))
       end)
  | Syscall.Write { fd; data } ->
    (match Fd_table.find view.View.fds fd with
     | None -> some (Error Errno.EBADF)
     | Some f ->
       if not f.Fd_table.flags.Fs.wr then some (Error Errno.EBADF)
       else begin
         let off =
           if f.Fd_table.flags.Fs.append then Inode.size f.Fd_table.inode
           else f.Fd_table.pos
         in
         let n = Inode.write f.Fd_table.inode ~off data in
         f.Fd_table.pos <- off + n;
         Inode.set_mtime f.Fd_table.inode (now t);
         some (Ok (Syscall.Int n))
       end)
  | Syscall.Pread { fd; off; len } ->
    (match Fd_table.find view.View.fds fd with
     | None -> some (Error Errno.EBADF)
     | Some f ->
       if not f.Fd_table.flags.Fs.rd then some (Error Errno.EBADF)
       else if off < 0 then some (Error Errno.EINVAL)
       else
         some (Ok (Syscall.Data (Inode.read f.Fd_table.inode ~off ~len))))
  | Syscall.Pwrite { fd; off; data } ->
    (match Fd_table.find view.View.fds fd with
     | None -> some (Error Errno.EBADF)
     | Some f ->
       if not f.Fd_table.flags.Fs.wr then some (Error Errno.EBADF)
       else if off < 0 then some (Error Errno.EINVAL)
       else begin
         let n = Inode.write f.Fd_table.inode ~off data in
         Inode.set_mtime f.Fd_table.inode (now t);
         some (Ok (Syscall.Int n))
       end)
  | Syscall.Lseek { fd; off; whence } ->
    (match Fd_table.find view.View.fds fd with
     | None -> some (Error Errno.EBADF)
     | Some f ->
       let base =
         match whence with
         | Syscall.Seek_set -> 0
         | Syscall.Seek_cur -> f.Fd_table.pos
         | Syscall.Seek_end -> Inode.size f.Fd_table.inode
       in
       let npos = base + off in
       if npos < 0 then some (Error Errno.EINVAL)
       else begin
         f.Fd_table.pos <- npos;
         some (Ok (Syscall.Int npos))
       end)
  | Syscall.Stat path ->
    (match Fs.stat t.k_fs ~uid (abs view path) with
     | Ok st -> some (Ok (Syscall.Stat_v st))
     | Error e -> some (Error e))
  | Syscall.Lstat path ->
    (match Fs.lstat t.k_fs ~uid (abs view path) with
     | Ok st -> some (Ok (Syscall.Stat_v st))
     | Error e -> some (Error e))
  | Syscall.Fstat fd ->
    (match Fd_table.find view.View.fds fd with
     | None -> some (Error Errno.EBADF)
     | Some f -> some (Ok (Syscall.Stat_v (Fs.fstat f.Fd_table.inode))))
  | Syscall.Mkdir { path; mode } ->
    (match Fs.mkdir t.k_fs ~uid ~mode (abs view path) with
     | Ok _ -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Rmdir path ->
    (match Fs.rmdir t.k_fs ~uid (abs view path) with
     | Ok () -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Unlink path ->
    (match Fs.unlink t.k_fs ~uid (abs view path) with
     | Ok () -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Link { target; path } ->
    (match Fs.link t.k_fs ~uid ~target:(abs view target) (abs view path) with
     | Ok () -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Symlink { target; path } ->
    (* The target is stored verbatim, as on Unix. *)
    (match Fs.symlink t.k_fs ~uid ~target (abs view path) with
     | Ok () -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Readlink path ->
    (match Fs.readlink t.k_fs ~uid (abs view path) with
     | Ok target -> some (Ok (Syscall.Str target))
     | Error e -> some (Error e))
  | Syscall.Rename { src; dst } ->
    (match Fs.rename t.k_fs ~uid ~src:(abs view src) ~dst:(abs view dst) with
     | Ok () -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Readdir path ->
    (match Fs.readdir t.k_fs ~uid (abs view path) with
     | Ok names -> some (Ok (Syscall.Names names))
     | Error e -> some (Error e))
  | Syscall.Chmod { path; mode } ->
    (match Fs.chmod t.k_fs ~uid ~mode (abs view path) with
     | Ok () -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Chown { path; owner } ->
    (match Fs.chown t.k_fs ~uid ~owner (abs view path) with
     | Ok () -> some (Ok Syscall.Unit)
     | Error e -> some (Error e))
  | Syscall.Truncate { path; len } ->
    let flags = { Fs.rd = false; wr = true; creat = false; excl = false;
                  trunc = false; append = false } in
    (match Fs.open_file t.k_fs ~uid ~flags ~mode:0 (abs view path) with
     | Error e -> some (Error e)
     | Ok inode ->
       if len < 0 then some (Error Errno.EINVAL)
       else begin
         Inode.truncate inode ~len;
         Inode.set_mtime inode (now t);
         some (Ok Syscall.Unit)
       end)
  | Syscall.Getenv name ->
    (match View.getenv view name with
     | Some v -> some (Ok (Syscall.Str v))
     | None -> some (Error Errno.ENOENT))
  | Syscall.Setenv { name; value } ->
    View.setenv view name value;
    some (Ok Syscall.Unit)
  | Syscall.Getacl _ | Syscall.Setacl _ ->
    (* ACLs are an identity-box construct: the stock kernel has no such
       call — precisely the gap the paper's user-level agent fills. *)
    some (Error Errno.ENOSYS)
  | Syscall.Getpid | Syscall.Getppid | Syscall.Pipe | Syscall.Spawn _
  | Syscall.Waitpid _ | Syscall.Exit _ | Syscall.Kill _ | Syscall.Compute _ ->
    None

let execute t view req =
  let result =
    match impl_file t view req with
    | Some r -> r
    | None ->
      (match req with
       | Syscall.Getpid -> Ok (Syscall.Int 0)
       | _ -> Error Errno.ENOSYS)
  in
  charge t (Cost.direct t.k_cost req result);
  result

let delegate t view req =
  t.k_stats.delegated <- t.k_stats.delegated + 1;
  t.k_stats.context_switches <- t.k_stats.context_switches + 2;
  charge t (Int64.mul 2L t.k_cost.Cost.context_switch);
  execute t view req

let read_to_end call fd ~chunk =
  let rec go chunks =
    match call (Syscall.Read { fd; len = chunk }) with
    | Ok (Syscall.Data "") ->
      Ok
        (match chunks with
         | [ data ] -> data
         | _ -> String.concat "" (List.rev chunks))
    | Ok (Syscall.Data data) -> go (data :: chunks)
    | Ok _ -> Error Errno.EINVAL
    | Error e -> Error e
  in
  go []

(* ------------------------------------------------------------------ *)
(* Process lifecycle.                                                  *)
(* ------------------------------------------------------------------ *)

let find_proc t pid = Hashtbl.find_opt t.procs pid

let enqueue t pid = Queue.push pid t.runq

(* --- sysmsg parking ------------------------------------------------- *)

(* A blocking invocation parks its sysmsg here; the wakeup path that
   eventually delivers the result completes it.  Single-completion is
   enforced by the message itself: a second completion attempt (a
   wakeup racing a kill) is counted, not applied. *)

let park_sysmsg t (msg : Syscall.result Sysent.sysmsg) =
  Hashtbl.replace t.parked msg.Sysent.sm_pid msg;
  Metrics.incr t.c_sysmsg_parked

let complete_parked t pid result =
  match Hashtbl.find_opt t.parked pid with
  | None -> ()
  | Some msg ->
    Hashtbl.remove t.parked pid;
    if Sysent.complete msg result then Metrics.incr t.c_sysmsg_completed
    else Metrics.incr t.c_sysmsg_late

let alloc_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let add_process t ~parent ~uid ~cwd ~env ~tracer ~main ~args =
  let pid = alloc_pid t in
  let pcb = Proc.make ~pid ~parent ~uid ~cwd ~env ~main ~args in
  pcb.Proc.tracer <- tracer;
  Hashtbl.replace t.procs pid pcb;
  (match find_proc t parent with
   | Some parent_pcb ->
     parent_pcb.Proc.children <- pid :: parent_pcb.Proc.children;
     (* fork semantics: the child inherits the parent's descriptors
        (fresh offsets, shared objects; pipe reference counts grow). *)
     List.iter
       (fun fd ->
         match Fd_table.find parent_pcb.Proc.view.View.fds fd with
         | None -> ()
         | Some f ->
           Fd_table.alloc_at pcb.Proc.view.View.fds fd
             {
               Fd_table.inode = f.Fd_table.inode;
               of_path = f.Fd_table.of_path;
               flags = f.Fd_table.flags;
               pos = f.Fd_table.pos;
             };
           (match Inode.pipe_of f.Fd_table.inode with
            | Some pipe ->
              if f.Fd_table.flags.Fs.rd then Inode.pipe_add_reader pipe;
              if f.Fd_table.flags.Fs.wr then Inode.pipe_add_writer pipe
            | None -> ()))
       (Fd_table.fds parent_pcb.Proc.view.View.fds)
   | None -> ());
  t.k_stats.spawns <- t.k_stats.spawns + 1;
  (match tracer with
   | Some tr -> tr.Trace.on_event (Trace.Spawned { pid; parent })
   | None -> ());
  enqueue t pid;
  pid

let spawn_main t ?(parent = 0) ?(uid = 0) ?(cwd = "/") ?(env = []) ?tracer ~main
    ~args () =
  let tracer =
    match tracer with
    | Some _ -> tracer
    | None ->
      (match find_proc t parent with
       | Some parent_pcb -> parent_pcb.Proc.tracer
       | None -> None)
  in
  add_process t ~parent ~uid ~cwd ~env ~tracer ~main ~args

(* Resolve an executable file to a registered program. *)
let load_program t ~uid path =
  match Fs.resolve t.k_fs ~uid path with
  | Error e -> Error e
  | Ok inode ->
    if Inode.kind inode <> Inode.Regular then Error Errno.EACCES
    else if not (Perm.check ~uid ~owner:(Inode.uid inode) ~mode:(Inode.mode inode) Perm.X)
    then Error Errno.EACCES
    else
      (match Program.of_marker (Inode.contents inode) with
       | None -> Error Errno.EINVAL
       | Some name ->
         (match Program.find name with
          | None -> Error Errno.EINVAL
          | Some main -> Ok main))

let spawn t ?(parent = 0) ?(uid = 0) ?(cwd = "/") ?(env = []) ?tracer ~path ~args
    () =
  let p = Path.join cwd path in
  match load_program t ~uid p with
  | Error e -> Error e
  | Ok main -> Ok (spawn_main t ~parent ~uid ~cwd ~env ?tracer ~main ~args ())

(* ------------------------------------------------------------------ *)
(* Fiber execution.                                                    *)
(* ------------------------------------------------------------------ *)

let wake_waiting_parent t (child : Proc.t) =
  match find_proc t child.Proc.parent with
  | None -> ()
  | Some parent ->
    (match parent.Proc.run with
     | Proc.Waiting { wk; wreq = Syscall.Waitpid want as wreq }
       when want = -1 || want = child.Proc.pid ->
       let code =
         match child.Proc.run with Proc.Zombie c -> c | _ -> assert false
       in
       child.Proc.run <- Proc.Reaped code;
       parent.Proc.children <-
         List.filter (fun pid -> pid <> child.Proc.pid) parent.Proc.children;
       let result = Ok (Syscall.Wait_v { pid = child.Proc.pid; status = code }) in
       let final =
         match parent.Proc.tracer with
         | None -> result
         | Some tr ->
           t.k_stats.context_switches <- t.k_stats.context_switches + 2;
           charge t (Int64.mul 2L t.k_cost.Cost.context_switch);
           (match tr.Trace.on_exit ~pid:parent.Proc.pid wreq result with
            | Trace.Keep -> result
            | Trace.Replace r -> r)
       in
       complete_parked t parent.Proc.pid final;
       parent.Proc.run <- Proc.Deliver (wk, final);
       enqueue t parent.Proc.pid
     | _ -> ())

(* ------------------------------------------------------------------ *)
(* Pipes.                                                              *)
(* ------------------------------------------------------------------ *)

let pipe_of_fd (pcb : Proc.t) fd =
  match Fd_table.find pcb.Proc.view.View.fds fd with
  | None -> None
  | Some f ->
    (match Inode.pipe_of f.Fd_table.inode with
     | Some pipe -> Some (f, pipe)
     | None -> None)

let waiters_for t ino =
  match Hashtbl.find_opt t.pipe_waiters ino with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.pipe_waiters ino l;
    l

(* Deliver blocked reads that can now complete: data arrived, or the
   last writer vanished (EOF).  Waiters that still cannot proceed stay
   registered; stale entries (killed or retargeted processes) drop. *)
let wake_pipe_readers t inode =
  match Inode.pipe_of inode with
  | None -> ()
  | Some pipe ->
    let waiters = waiters_for t (Inode.ino inode) in
    let still = ref [] in
    List.iter
      (fun pid ->
        match find_proc t pid with
        | None -> ()
        | Some pcb ->
          (match pcb.Proc.run with
           | Proc.Waiting { wk; wreq = Syscall.Read { fd; len } as wreq }
             when (match pipe_of_fd pcb fd with
                   | Some (_, p) -> p == pipe
                   | None -> false) ->
             if Inode.pipe_available pipe > 0 || Inode.pipe_writers pipe = 0
             then begin
               let result = Ok (Syscall.Data (Inode.pipe_pull pipe len)) in
               charge t (Cost.direct t.k_cost wreq result);
               let final =
                 match pcb.Proc.tracer with
                 | None -> result
                 | Some tr ->
                   t.k_stats.context_switches <- t.k_stats.context_switches + 2;
                   charge t (Int64.mul 2L t.k_cost.Cost.context_switch);
                   (match tr.Trace.on_exit ~pid wreq result with
                    | Trace.Keep -> result
                    | Trace.Replace r -> r)
               in
               complete_parked t pid final;
               pcb.Proc.run <- Proc.Deliver (wk, final);
               enqueue t pid
             end
             else still := pid :: !still
           | _ -> ()))
      !waiters;
    waiters := List.rev !still

(* Drop a process's pipe references (close or exit) and wake readers
   that may now see EOF. *)
let release_pipe_end t (f : Fd_table.open_file) =
  match Inode.pipe_of f.Fd_table.inode with
  | None -> ()
  | Some pipe ->
    if f.Fd_table.flags.Fs.rd then Inode.pipe_drop_reader pipe;
    if f.Fd_table.flags.Fs.wr then Inode.pipe_drop_writer pipe;
    if Inode.pipe_writers pipe = 0 then wake_pipe_readers t f.Fd_table.inode

let release_all_pipes t (view : View.t) =
  List.iter
    (fun fd ->
      match Fd_table.find view.View.fds fd with
      | Some f -> release_pipe_end t f
      | None -> ())
    (Fd_table.fds view.View.fds)

let on_fiber_end t (pcb : Proc.t) code =
  release_all_pipes t pcb.Proc.view;
  Fd_table.close_all pcb.Proc.view.View.fds;
  pcb.Proc.run <- Proc.Zombie code;
  (match pcb.Proc.tracer with
   | Some tr -> tr.Trace.on_event (Trace.Exited { pid = pcb.Proc.pid; code })
   | None -> ());
  wake_waiting_parent t pcb

let start_fiber t (pcb : Proc.t) main args =
  let handler =
    {
      Effect.Deep.retc = (fun code -> on_fiber_end t pcb code);
      exnc =
        (fun exn ->
          match exn with
          | Program.Exited code -> on_fiber_end t pcb code
          | Program.Killed signal -> on_fiber_end t pcb (128 + signal)
          | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Program.Sys req ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                pcb.Proc.pending <- Some (req, k))
          | _ -> None);
    }
  in
  Effect.Deep.match_with (fun () -> main args) () handler

(* ------------------------------------------------------------------ *)
(* Kill.                                                               *)
(* ------------------------------------------------------------------ *)

let terminate t (pcb : Proc.t) ~signal =
  match pcb.Proc.run with
  | Proc.Zombie _ | Proc.Reaped _ -> Error Errno.ESRCH
  | Proc.Not_started _ ->
    pcb.Proc.run <- Proc.Running;
    on_fiber_end t pcb (128 + signal);
    Ok ()
  | Proc.Deliver (k, _) ->
    pcb.Proc.run <- Proc.Running;
    Effect.Deep.discontinue k (Program.Killed signal);
    Ok ()
  | Proc.Waiting { wk; _ } ->
    (* The parked invocation dies with the process: its sysmsg
       completes as interrupted, exactly once. *)
    complete_parked t pcb.Proc.pid (Error Errno.EINTR);
    pcb.Proc.run <- Proc.Running;
    Effect.Deep.discontinue wk (Program.Killed signal);
    Ok ()
  | Proc.Running ->
    (* Self-kill from within a syscall is handled by the caller. *)
    Error Errno.EAGAIN

let kill t ~pid ~signal =
  match find_proc t pid with
  | None -> Error Errno.ESRCH
  | Some pcb -> terminate t pcb ~signal

(* ------------------------------------------------------------------ *)
(* System call service.                                                *)
(* ------------------------------------------------------------------ *)

let try_reap t (pcb : Proc.t) want =
  let zombie_child () =
    List.filter_map
      (fun pid ->
        match find_proc t pid with
        | Some child ->
          (match child.Proc.run with
           | Proc.Zombie code when want = -1 || want = child.Proc.pid ->
             Some (child, code)
           | _ -> None)
        | None -> None)
      pcb.Proc.children
    |> function
    | [] -> None
    | hit :: _ -> Some hit
  in
  match zombie_child () with
  | Some (child, code) ->
    child.Proc.run <- Proc.Reaped code;
    pcb.Proc.children <-
      List.filter (fun pid -> pid <> child.Proc.pid) pcb.Proc.children;
    Some (Ok (Syscall.Wait_v { pid = child.Proc.pid; status = code }))
  | None ->
    let has_candidate =
      List.exists
        (fun pid ->
          (want = -1 || want = pid)
          && match find_proc t pid with Some c -> Proc.is_alive c | None -> false)
        pcb.Proc.children
    in
    if has_candidate then None else Some (Error Errno.ECHILD)

(* Pipe-touching requests need process context and may block; they are
   intercepted before the generic file-level implementation.  [None]
   means "not a pipe operation" — fall through. *)
let pipe_request t (pcb : Proc.t) req : exec_outcome option =
  let done_charged result =
    charge t (Cost.direct t.k_cost req result);
    Some (Done result)
  in
  match req with
  | Syscall.Pipe ->
    let inode = Fs.make_pipe t.k_fs in
    let base =
      { Fs.rd = false; wr = false; creat = false; excl = false; trunc = false;
        append = false }
    in
    let fds = pcb.Proc.view.View.fds in
    (match
       Fd_table.alloc fds
         { Fd_table.inode; of_path = "pipe:[r]"; flags = { base with Fs.rd = true }; pos = 0 }
     with
     | Error e -> done_charged (Error e)
     | Ok rd ->
       (match
          Fd_table.alloc fds
            { Fd_table.inode; of_path = "pipe:[w]"; flags = { base with Fs.wr = true };
              pos = 0 }
        with
        | Error e ->
          ignore (Fd_table.close fds rd);
          done_charged (Error e)
        | Ok wr -> done_charged (Ok (Syscall.Fd_pair { rd; wr }))))
  | Syscall.Read { fd; len } ->
    (match pipe_of_fd pcb fd with
     | None -> None
     | Some (f, pipe) ->
       if not f.Fd_table.flags.Fs.rd then done_charged (Error Errno.EBADF)
       else if Inode.pipe_available pipe > 0 then
         done_charged (Ok (Syscall.Data (Inode.pipe_pull pipe len)))
       else if Inode.pipe_writers pipe = 0 then
         done_charged (Ok (Syscall.Data ""))
       else begin
         (* Block until a writer supplies data or the last writer goes. *)
         let waiters = waiters_for t (Inode.ino f.Fd_table.inode) in
         waiters := !waiters @ [ pcb.Proc.pid ];
         Some Blocks
       end)
  | Syscall.Write { fd; data } ->
    (match pipe_of_fd pcb fd with
     | None -> None
     | Some (f, pipe) ->
       if not f.Fd_table.flags.Fs.wr then done_charged (Error Errno.EBADF)
       else if Inode.pipe_readers pipe = 0 then done_charged (Error Errno.EPIPE)
       else begin
         Inode.pipe_push pipe data;
         let outcome = done_charged (Ok (Syscall.Int (String.length data))) in
         wake_pipe_readers t f.Fd_table.inode;
         outcome
       end)
  | Syscall.Pread { fd; _ } | Syscall.Pwrite { fd; _ } | Syscall.Lseek { fd; _ }
    ->
    (match pipe_of_fd pcb fd with
     | None -> None
     | Some _ -> done_charged (Error Errno.ESPIPE))
  | Syscall.Close fd ->
    (match pipe_of_fd pcb fd with
     | None -> None
     | Some (f, _) ->
       ignore (Fd_table.close pcb.Proc.view.View.fds fd);
       release_pipe_end t f;
       done_charged (Ok Syscall.Unit))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The sysent table.                                                   *)
(* ------------------------------------------------------------------ *)

(* One entry per system call, each carrying the handler for its family
   and the enforcement pre-check hook.  Handlers close over [t], so the
   table is built lazily per kernel instance; the enforcement closure
   reads [t.security] at call time, so installing a hook after the
   table is built still takes effect.  Every handler charges the
   direct cost for completing calls; the blocking/exit control-flow
   cases charge nothing here (their wakeup paths do). *)
let build_sysent t : (Proc.t, exec_outcome) Sysent.entry array =
  let enforce (pcb : Proc.t) req =
    match t.security with
    | None -> Sysent.Allow
    | Some hook -> hook ~pid:pcb.Proc.pid pcb.Proc.view req
  in
  let done_charged req result =
    charge t (Cost.direct t.k_cost req result);
    Done result
  in
  (* Everything [impl_file] covers: plain file/metadata calls against
     the caller's view. *)
  let call_file (pcb : Proc.t) req =
    match impl_file t pcb.Proc.view req with
    | Some result -> done_charged req result
    | None -> assert false
  in
  (* fd calls that may hit a pipe end: intercepted for pipe semantics
     (including blocking reads), otherwise plain file calls. *)
  let call_pipe_or_file pcb req =
    match pipe_request t pcb req with
    | Some outcome -> outcome
    | None -> call_file pcb req
  in
  let call_pipe_only pcb req =
    match pipe_request t pcb req with
    | Some outcome -> outcome
    | None -> assert false
  in
  (* The paper's call: the high-level identity of the caller, from the
     installed provider when there is one. *)
  let call_identity (pcb : Proc.t) req =
    match t.identity_of with
    | Some provider ->
      let result =
        match provider pcb.Proc.pid with
        | Some identity -> Ok (Syscall.Str identity)
        | None ->
          Ok
            (Syscall.Str
               (Account.name_of_uid t.k_accounts pcb.Proc.view.View.uid))
      in
      done_charged req result
    | None -> call_file pcb req
  in
  let call_getpid (pcb : Proc.t) req =
    done_charged req (Ok (Syscall.Int pcb.Proc.pid))
  in
  let call_getppid (pcb : Proc.t) req =
    done_charged req (Ok (Syscall.Int pcb.Proc.parent))
  in
  let call_compute _pcb req =
    match req with
    | Syscall.Compute ns ->
      charge t ns;
      Done (Ok Syscall.Unit)
    | _ -> assert false
  in
  let call_exit _pcb req =
    match req with Syscall.Exit code -> Exits code | _ -> assert false
  in
  let call_spawn (pcb : Proc.t) req =
    match req with
    | Syscall.Spawn { path; args } ->
      let result =
        match
          spawn t ~parent:pcb.Proc.pid ~uid:pcb.Proc.view.View.uid
            ~cwd:pcb.Proc.view.View.cwd
            ~env:(View.env_bindings pcb.Proc.view)
            ~path ~args ()
        with
        | Ok pid -> Ok (Syscall.Int pid)
        | Error e -> Error e
      in
      done_charged req result
    | _ -> assert false
  in
  let call_waitpid pcb req =
    match req with
    | Syscall.Waitpid want ->
      (match try_reap t pcb want with
       | Some result -> done_charged req result
       | None -> Blocks)
    | _ -> assert false
  in
  let call_kill (pcb : Proc.t) req =
    match req with
    | Syscall.Kill { pid; signal } ->
      let result =
        if pid = pcb.Proc.pid then Error Errno.EINVAL
        else
          match find_proc t pid with
          | None -> Error Errno.ESRCH
          | Some target ->
            let self_uid = pcb.Proc.view.View.uid in
            if self_uid <> 0 && self_uid <> target.Proc.view.View.uid then
              Error Errno.EPERM
            else
              (match terminate t target ~signal with
               | Ok () -> Ok Syscall.Unit
               | Error e -> Error e)
      in
      done_charged req result
    | _ -> assert false
  in
  let protos = Array.of_list Syscall.prototypes in
  Sysent.table ~count:Syscall.count (fun n ->
      let proto = protos.(n) in
      let call =
        match proto with
        | Syscall.Pipe -> call_pipe_only
        | Syscall.Read _ | Syscall.Write _ | Syscall.Close _ | Syscall.Pread _
        | Syscall.Pwrite _ | Syscall.Lseek _ -> call_pipe_or_file
        | Syscall.Get_user_name -> call_identity
        | Syscall.Getpid -> call_getpid
        | Syscall.Getppid -> call_getppid
        | Syscall.Compute _ -> call_compute
        | Syscall.Exit _ -> call_exit
        | Syscall.Spawn _ -> call_spawn
        | Syscall.Waitpid _ -> call_waitpid
        | Syscall.Kill _ -> call_kill
        | _ -> call_file
      in
      let enforce =
        (* Compute never crosses the trap boundary, so it has no
           pre-check — everything else does. *)
        match proto with Syscall.Compute _ -> None | _ -> Some enforce
      in
      Sysent.entry ~number:n ~name:(Syscall.name proto)
        ~narg:(Syscall.register_args proto) ?enforce call)

let sysent t =
  if Array.length t.sysent_tbl = 0 then begin
    t.sysent_tbl <- build_sysent t;
    (* Intern one counter/histogram handle per syscall number, so the
       dispatch path below indexes an array instead of hashing a
       "syscall.<name>" string on every invocation. *)
    t.sc_counters <-
      Array.map
        (fun (e : (Proc.t, exec_outcome) Sysent.entry) ->
          Metrics.counter t.k_metrics ("syscall." ^ e.Sysent.se_name))
        t.sysent_tbl;
    t.sc_hists <-
      Array.map
        (fun (e : (Proc.t, exec_outcome) Sysent.entry) ->
          Metrics.histogram t.k_metrics ("syscall." ^ e.Sysent.se_name ^ ".ns"))
        t.sysent_tbl
  end;
  t.sysent_tbl

let sysent_summary t =
  Array.to_list
    (Array.map
       (fun (e : (Proc.t, exec_outcome) Sysent.entry) ->
         (e.Sysent.se_number, e.Sysent.se_name, e.Sysent.se_narg,
          Option.is_some e.Sysent.se_enforce))
       (sysent t))

(* Execute a request in full process context: dispatch through the
   sysent table. *)
let exec_process_call t (pcb : Proc.t) req : exec_outcome =
  (Sysent.dispatch (sysent t) req).Sysent.se_call pcb req

let cs2 t =
  t.k_stats.context_switches <- t.k_stats.context_switches + 2;
  charge t (Int64.mul 2L t.k_cost.Cost.context_switch)

let service t (pcb : Proc.t) req (k : Proc.continuation) =
  let deliver result =
    pcb.Proc.run <- Proc.Deliver (k, result);
    enqueue t pcb.Proc.pid
  in
  match req with
  | Syscall.Compute ns ->
    (* Pure user-mode time: no kernel crossing, no trap. *)
    charge t ns;
    deliver (Ok Syscall.Unit)
  | _ ->
    t.k_stats.syscalls <- t.k_stats.syscalls + 1;
    let entry = Sysent.dispatch (sysent t) req in
    let sc = entry.Sysent.se_name in
    let entry_time = now t in
    (* One sysmsg per invocation: completed synchronously below, or
       parked on [Blocks] and completed by the wakeup path. *)
    let msg = Sysent.msg ~pid:pcb.Proc.pid ~at:entry_time entry in
    Metrics.incr t.sc_counters.(entry.Sysent.se_number);
    (* Shadow [deliver] so every completing call records its simulated
       latency and leaves a trace span.  Blocking calls are delivered
       elsewhere (pipe/waitpid wake-ups) and escape this accounting;
       the counter above still saw them. *)
    let deliver result =
      ignore (Sysent.complete msg result);
      let elapsed = Int64.sub (now t) entry_time in
      Metrics.observe_ns t.sc_hists.(entry.Sysent.se_number) elapsed;
      let identity =
        match t.identity_of with
        | Some provider ->
          (match provider pcb.Proc.pid with Some id -> id | None -> "-")
        | None -> "-"
      in
      let verdict =
        match result with Ok _ -> "ok" | Error e -> Errno.to_string e
      in
      Trace.span t.k_trace ~time:entry_time ~pid:pcb.Proc.pid ~identity
        ~syscall:sc ~verdict ~cost_ns:elapsed;
      deliver result
    in
    (match pcb.Proc.tracer with
     | None ->
       let security_verdict =
         match entry.Sysent.se_enforce with
         | None -> Sysent.Allow
         | Some pre -> pre pcb req
       in
       (* A denied or answered call is delivered like any completed one
          (span and histogram), without the kernel's own handler. *)
       (match security_verdict with
        | Sysent.Deny e -> deliver (Error e)
        | Sysent.Answer v -> deliver (Ok v)
        | Sysent.Allow ->
       match entry.Sysent.se_call pcb req with
        | Done result -> deliver result
        | Blocks ->
          park_sysmsg t msg;
          pcb.Proc.run <- Proc.Waiting { wk = k; wreq = req }
        | Exits code ->
          pcb.Proc.run <- Proc.Running;
          Effect.Deep.discontinue k (Program.Exited code))
     | Some tr ->
       t.k_stats.trapped <- t.k_stats.trapped + 1;
       (* Entry stop: application -> kernel -> supervisor. *)
       cs2 t;
       let action = tr.Trace.on_entry ~pid:pcb.Proc.pid req in
       let outcome =
         match action with
         | Trace.Pass -> exec_process_call t pcb req
         | Trace.Rewrite req' -> exec_process_call t pcb req'
         | Trace.Deny errno ->
           (* Nullified into getpid, result forced to the errno. *)
           let null = Syscall.Getpid in
           (match exec_process_call t pcb null with
            | Done _ -> Done (Error errno)
            | Blocks | Exits _ -> assert false)
       in
       (match outcome with
        | Done result ->
          (* Exit stop: kernel -> supervisor -> application. *)
          cs2 t;
          let final =
            match action with
            | Trace.Deny _ -> result
            | Trace.Pass | Trace.Rewrite _ ->
              (match tr.Trace.on_exit ~pid:pcb.Proc.pid req result with
               | Trace.Keep -> result
               | Trace.Replace r -> r)
          in
          deliver final
        | Blocks ->
          park_sysmsg t msg;
          pcb.Proc.run <- Proc.Waiting { wk = k; wreq = req }
        | Exits code ->
          cs2 t;
          pcb.Proc.run <- Proc.Running;
          Effect.Deep.discontinue k (Program.Exited code)))

(* ------------------------------------------------------------------ *)
(* Scheduler.                                                          *)
(* ------------------------------------------------------------------ *)

let step t pid =
  match find_proc t pid with
  | None -> ()
  | Some pcb ->
    (match pcb.Proc.run with
     | Proc.Not_started (main, args) ->
       pcb.Proc.run <- Proc.Running;
       start_fiber t pcb main args
     | Proc.Deliver (k, result) ->
       pcb.Proc.run <- Proc.Running;
       Effect.Deep.continue k result
     | Proc.Running | Proc.Waiting _ | Proc.Zombie _ | Proc.Reaped _ ->
       (* Stale queue entry. *)
       ());
    (match pcb.Proc.pending with
     | Some (req, k) ->
       pcb.Proc.pending <- None;
       service t pcb req k
     | None -> ())

let rec run t =
  match Queue.take_opt t.runq with
  | None -> ()
  | Some pid ->
    step t pid;
    run t

let status t pid =
  match find_proc t pid with
  | None -> `Unknown
  | Some pcb ->
    (match pcb.Proc.run with
     | Proc.Zombie code | Proc.Reaped code -> `Exited code
     | _ -> `Alive (Proc.state_name pcb))

let exit_code t pid =
  match find_proc t pid with None -> None | Some pcb -> Proc.exit_status pcb

(* Unix leaves an exited process in the table until its parent waits
   for it; when no parent can (it was reaped already, or its parent is
   gone or exited), the entry is dead weight. *)
let release t pid =
  match find_proc t pid with
  | Some pcb when not (Proc.is_alive pcb) ->
    let waitable =
      match (pcb.Proc.run, find_proc t pcb.Proc.parent) with
      | Proc.Zombie _, Some parent -> Proc.is_alive parent
      | _ -> false
    in
    if not waitable then Hashtbl.remove t.procs pid
  | Some _ | None -> ()

let parent_of t pid =
  match find_proc t pid with
  | Some pcb -> Some pcb.Proc.parent
  | None -> None

let process_view t pid =
  match find_proc t pid with
  | Some pcb when Proc.is_alive pcb -> Some pcb.Proc.view
  | Some _ | None -> None

let set_tracer t pid tracer =
  match find_proc t pid with
  | Some pcb -> pcb.Proc.tracer <- tracer
  | None -> ()

let process_states t =
  Hashtbl.fold (fun pid pcb acc -> (pid, Proc.state_name pcb) :: acc) t.procs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let set_security_hook t hook = t.security <- hook

let set_identity_provider t provider = t.identity_of <- provider

(* The compiled-policy slot.  Each enforcement engine on this kernel
   installs a fresh program here after a successful compile and clears
   it on rejection, so the slot holds the last engine's program;
   sysent-level consumers (and `idbox stats`) can inspect it. *)
let set_policy t p = t.k_policy <- p
let policy t = t.k_policy

let with_fresh_programs f =
  let saved = Program.snapshot () in
  Fun.protect ~finally:(fun () -> Program.restore saved) f
