module Kernel = Idbox_kernel.Kernel
module View = Idbox_kernel.View
module Syscall = Idbox_kernel.Syscall
module Trace = Idbox_kernel.Trace
module Metrics = Idbox_kernel.Metrics
module Tracer = Idbox_ptrace.Tracer
module Iochannel = Idbox_ptrace.Iochannel
module Acl = Idbox_acl.Acl
module Principal = Idbox_identity.Principal
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno
module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode

let log_src = Logs.Src.create "idbox.box" ~doc:"identity box supervisor"

module Log = (val Logs.src_log log_src)

(* A boxed process's open-file backing. *)
type backing =
  | Local of int  (** A descriptor in the supervisor's own table. *)
  | Remote_read of { rpath : string; driver : Remote.t; data : string }
  | Remote_write of { rpath : string; driver : Remote.t; buf : Buffer.t }

type vfile = {
  backing : backing;
  mutable vpos : int;
}

(* Per-tracee state the supervisor maintains (Parrot "must track a tree
   of processes [and] keep tables of open files"). *)
type vproc = {
  vpid : int;
  mutable vcwd : string;
  vfds : (int, vfile) Hashtbl.t;
  mutable next_vfd : int;
  passthrough : (int, unit) Hashtbl.t;
      (** Real kernel descriptors (pipe ends) the tracee may use
          directly: the kernel implements pipe semantics, including
          blocking, under the box's eye. *)
}

type t = {
  bx_kernel : Kernel.t;
  sup : View.t;
  bx_identity : Principal.t;
  caller : Rights_table.caller;  (* the identity, with its full authority *)
  enforce : Enforce.t;
  channel : Iochannel.t;
  vprocs : (int, vproc) Hashtbl.t;
  pending : (int, Syscall.result -> Syscall.result) Hashtbl.t;
  mounts : (string * Remote.t) list;
  bx_base : string;
  bx_home : string;
  bx_passwd : string;
  small_io : int;
  bx_audit : Audit.t option;
  mutable bx_handler : Trace.handler option;
  m_delegate : Metrics.counter;
  m_trap : Metrics.counter;
  m_pass : Metrics.counter;
  m_deny : Metrics.counter;
  m_nullify : Metrics.counter;
  m_rewrite : Metrics.counter;
}

let identity t = t.bx_identity
let identity_string t = Principal.to_string t.bx_identity
let home t = t.bx_home
let base t = t.bx_base
let passwd_path t = t.bx_passwd
let supervisor_view t = t.sup
let enforcer t = t.enforce
let kernel t = t.bx_kernel
let member t pid = Hashtbl.mem t.vprocs pid

let handler t =
  match t.bx_handler with Some h -> h | None -> assert false

let delegate t req =
  Metrics.incr t.m_delegate;
  Kernel.delegate t.bx_kernel t.sup req

(* ------------------------------------------------------------------ *)
(* Path handling.                                                      *)
(* ------------------------------------------------------------------ *)

let vproc_of t pid =
  match Hashtbl.find_opt t.vprocs pid with
  | Some vp -> vp
  | None ->
    let vp =
      { vpid = pid; vcwd = t.bx_home; vfds = Hashtbl.create 8; next_vfd = 1000;
        passthrough = Hashtbl.create 4 }
    in
    Hashtbl.replace t.vprocs pid vp;
    vp

(* Canonical absolute path for a tracee-supplied path: joined against
   the virtual cwd, ancestor symlinks resolved (so the ACL check and the
   delegated action always name the same object — the parent flavour of
   Garfinkel pitfall #2), and the paper's /etc/passwd redirection
   applied. *)
let redirect t abs = if String.equal abs "/etc/passwd" then t.bx_passwd else abs

let canon t vp path =
  redirect t (Enforce.canonical_parents t.enforce (Path.join vp.vcwd path))

let mount_of t abs =
  List.find_map
    (fun (prefix, driver) ->
      match Path.strip_prefix ~prefix abs with
      | Some rest -> Some (driver, rest)
      | None -> None)
    t.mounts

(* ------------------------------------------------------------------ *)
(* Entry-action helpers.                                               *)
(* ------------------------------------------------------------------ *)

(* Nullify the call and inject [result] at the exit stop. *)
let emulate t pid result =
  Hashtbl.replace t.pending pid (fun _ -> result);
  Trace.Rewrite Syscall.Getpid

let deny e = Trace.Deny e

(* Ask the rights table about [req], whose paths are canonical, and go
   on with [k] when it allows. *)
let authorized t req k =
  match Rights_table.of_request req with
  | Rights_table.Ask row, paths ->
    (match Rights_table.authorize t.enforce t.caller row paths with
     | Ok () -> k ()
     | Error e -> deny e)
  | Rights_table.Refuse e, _ -> deny e
  | (Rights_table.Signal _ | Rights_table.Free), _ -> k ()

(* The table's name guard alone: a remote mount's driver never sees a
   call that names an ACL file either. *)
let guarded req k =
  match Rights_table.of_request req with
  | Rights_table.Ask row, paths when Result.is_error (Rights_table.guard row paths) ->
    deny Errno.EACCES
  | _ -> k ()

(* Inject [r]'s value, made a call result by [value], or deny its
   errno. *)
let answer t pid value = function
  | Ok x -> emulate t pid (Ok (value x))
  | Error e -> deny e

let unit _ = Syscall.Unit
let stat_v st = Syscall.Stat_v st
let names ns = Syscall.Names ns
let str s = Syscall.Str s

(* Authorize [req] and make it as the supervisor. *)
let perform t pid req = authorized t req (fun () -> answer t pid Fun.id (delegate t req))

let words_of_bytes n = (n + 7) / 8

(* ------------------------------------------------------------------ *)
(* Open files.                                                         *)
(* ------------------------------------------------------------------ *)

let alloc_vfd vp vfile =
  let vfd = vp.next_vfd in
  vp.next_vfd <- vfd + 1;
  Hashtbl.replace vp.vfds vfd vfile;
  vfd

(* An fd the box does not virtualize: a pipe end the kernel manages
   directly (blocking included).  Anything else is a bad descriptor. *)
let pass_or_badf vp fd =
  if Hashtbl.mem vp.passthrough fd then Trace.Pass else deny Errno.EBADF

let handle_open t pid vp path flags mode =
  let abs = canon t vp path in
  let req = Syscall.Open { path = abs; flags; mode } in
  match mount_of t abs with
  | Some (driver, rpath) ->
    guarded req (fun () ->
        if flags.Fs.wr && flags.Fs.rd then deny Errno.EINVAL
        else if flags.Fs.wr then
          let vfile =
            { backing = Remote_write { rpath; driver; buf = Buffer.create 256 };
              vpos = 0 }
          in
          emulate t pid (Ok (Syscall.Int (alloc_vfd vp vfile)))
        else
          match driver.Remote.r_read rpath with
          | Error e -> deny e
          | Ok data ->
            let vfile = { backing = Remote_read { rpath; driver; data }; vpos = 0 } in
            emulate t pid (Ok (Syscall.Int (alloc_vfd vp vfile))))
  | None ->
    let do_open () =
      match delegate t req with
      | Error e -> deny e
      | Ok (Syscall.Int sfd) ->
        let vfd = alloc_vfd vp { backing = Local sfd; vpos = 0 } in
        emulate t pid (Ok (Syscall.Int vfd))
      | Ok _ -> deny Errno.EINVAL
    in
    if String.equal abs t.bx_passwd then
      (* The box's private /etc/passwd copy: readable by design (the
         redirection exists so whoami works), never writable. *)
      if flags.Fs.wr || flags.Fs.creat then deny Errno.EACCES else do_open ()
    else authorized t req do_open

let handle_close t pid vp vfd =
  match Hashtbl.find_opt vp.vfds vfd with
  | None ->
    if Hashtbl.mem vp.passthrough vfd then begin
      Hashtbl.remove vp.passthrough vfd;
      Trace.Pass
    end
    else deny Errno.EBADF
  | Some vfile ->
    Hashtbl.remove vp.vfds vfd;
    (match vfile.backing with
     | Local sfd -> answer t pid unit (delegate t (Syscall.Close sfd))
     | Remote_read _ -> emulate t pid (Ok Syscall.Unit)
     | Remote_write { rpath; driver; buf } ->
       answer t pid unit (driver.Remote.r_write rpath (Buffer.contents buf)))

(* Serve a read of [len] bytes at the backing's notion of position.
   [advance] moves the sequential position on success. *)
let handle_read t pid vp vfd ~len ~at =
  match Hashtbl.find_opt vp.vfds vfd with
  | None -> pass_or_badf vp vfd
  | Some vfile ->
    (match vfile.backing with
     | Local sfd ->
       let req =
         match at with
         | None -> Syscall.Read { fd = sfd; len }
         | Some off -> Syscall.Pread { fd = sfd; off; len }
       in
       (match delegate t req with
        | Error e -> deny e
        | Ok (Syscall.Data data) ->
          if String.length data <= t.small_io then begin
            (* Small transfer: poke the bytes into the tracee. *)
            Kernel.note_peek_poke t.bx_kernel
              ~words:(words_of_bytes (String.length data));
            emulate t pid (Ok (Syscall.Data data))
          end
          else begin
            (* Bulk transfer: stage in the I/O channel and coerce the
               tracee into pulling it with a pread. *)
            let off = Iochannel.stage t.channel data in
            Trace.Rewrite
              (Syscall.Pread
                 { fd = Iochannel.channel_fd; off; len = String.length data })
          end
        | Ok _ -> deny Errno.EINVAL)
     | Remote_read { data; _ } ->
       let off = match at with None -> vfile.vpos | Some o -> o in
       let n = max 0 (min len (String.length data - off)) in
       let chunk = if n = 0 then "" else String.sub data off n in
       if at = None then vfile.vpos <- off + n;
       if n <= t.small_io then begin
         Kernel.note_peek_poke t.bx_kernel ~words:(words_of_bytes n);
         emulate t pid (Ok (Syscall.Data chunk))
       end
       else
         let coff = Iochannel.stage t.channel chunk in
         Trace.Rewrite
           (Syscall.Pread { fd = Iochannel.channel_fd; off = coff; len = n })
     | Remote_write _ -> deny Errno.EBADF)

let handle_write t pid vp vfd ~data ~at =
  match Hashtbl.find_opt vp.vfds vfd with
  | None -> pass_or_badf vp vfd
  | Some vfile ->
    let len = String.length data in
    (match vfile.backing with
     | Local sfd ->
       let req_at ~data = function
         | None -> Syscall.Write { fd = sfd; data }
         | Some off -> Syscall.Pwrite { fd = sfd; off; data }
       in
       if len <= t.small_io then begin
         (* Small transfer: peek the bytes out of the tracee. *)
         Kernel.note_peek_poke t.bx_kernel ~words:(words_of_bytes len);
         answer t pid Fun.id (delegate t (req_at ~data at))
       end
       else begin
         (* Bulk transfer: the tracee pwrites into the channel; at the
            exit stop the supervisor collects and performs the real
            write. *)
         let coff = Iochannel.reserve t.channel len in
         Hashtbl.replace t.pending pid (fun res ->
             match res with
             | Ok (Syscall.Int n) ->
               delegate t (req_at ~data:(Iochannel.collect t.channel ~off:coff ~len:n) at)
             | other -> other);
         Trace.Rewrite
           (Syscall.Pwrite { fd = Iochannel.channel_fd; off = coff; data })
       end
     | Remote_write { buf; _ } ->
       (match at with
        | Some _ -> deny Errno.ESPIPE
        | None ->
          Kernel.note_channel_copy t.bx_kernel ~bytes:len;
          Buffer.add_string buf data;
          vfile.vpos <- vfile.vpos + len;
          emulate t pid (Ok (Syscall.Int len)))
     | Remote_read _ -> deny Errno.EBADF)

let handle_lseek t pid vp vfd ~off ~whence =
  match Hashtbl.find_opt vp.vfds vfd with
  | None -> pass_or_badf vp vfd
  | Some vfile ->
    (match vfile.backing with
     | Local sfd -> answer t pid Fun.id (delegate t (Syscall.Lseek { fd = sfd; off; whence }))
     | Remote_read { data; _ } ->
       let basepos =
         match whence with
         | Syscall.Seek_set -> 0
         | Syscall.Seek_cur -> vfile.vpos
         | Syscall.Seek_end -> String.length data
       in
       let npos = basepos + off in
       if npos < 0 then deny Errno.EINVAL
       else begin
         vfile.vpos <- npos;
         emulate t pid (Ok (Syscall.Int npos))
       end
     | Remote_write _ -> deny Errno.ESPIPE)

let handle_fstat t pid vp vfd =
  match Hashtbl.find_opt vp.vfds vfd with
  | None -> pass_or_badf vp vfd
  | Some vfile ->
    (match vfile.backing with
     | Local sfd -> answer t pid Fun.id (delegate t (Syscall.Fstat sfd))
     | Remote_read { rpath; driver; _ } | Remote_write { rpath; driver; _ } ->
       answer t pid stat_v (driver.Remote.r_stat rpath))

(* ------------------------------------------------------------------ *)
(* Directory and metadata operations.                                  *)
(* ------------------------------------------------------------------ *)

let handle_stat t pid vp path ~follow =
  let abs = canon t vp path in
  match mount_of t abs with
  | Some (driver, rpath) -> answer t pid stat_v (driver.Remote.r_stat rpath)
  | None ->
    let req = if follow then Syscall.Stat abs else Syscall.Lstat abs in
    if String.equal abs t.bx_passwd then answer t pid Fun.id (delegate t req)
    else perform t pid req

let handle_mkdir t pid vp path mode =
  let abs = canon t vp path in
  match mount_of t abs with
  | Some (driver, rpath) ->
    guarded (Syscall.Mkdir { path = abs; mode }) (fun () ->
        answer t pid unit (driver.Remote.r_mkdir rpath))
  | None ->
    answer t pid unit
      (Rights_table.mkdir t.enforce t.caller ~delegate:(delegate t) abs ~mode)

let handle_rmdir t pid vp path =
  let abs = canon t vp path in
  match mount_of t abs with
  | Some (driver, rpath) -> answer t pid unit (driver.Remote.r_rmdir rpath)
  | None -> answer t pid unit (Rights_table.rmdir t.enforce t.caller ~delegate:(delegate t) abs)

let handle_unlink t pid vp path =
  let abs = canon t vp path in
  match mount_of t abs with
  | Some (driver, rpath) ->
    guarded (Syscall.Unlink abs) (fun () -> answer t pid unit (driver.Remote.r_unlink rpath))
  | None -> perform t pid (Syscall.Unlink abs)

let handle_readdir t pid vp path =
  let abs = canon t vp path in
  match mount_of t abs with
  | Some (driver, rpath) -> answer t pid names (driver.Remote.r_readdir rpath)
  | None ->
    answer t pid names (Rights_table.readdir t.enforce t.caller ~delegate:(delegate t) abs)

(* Links are local: across a remote mount the names would live in
   different stores. *)
let perform_local t pid req =
  let _, paths = Rights_table.of_request req in
  if List.exists (fun p -> mount_of t p <> None) paths then
    guarded req (fun () -> deny Errno.EXDEV)
  else perform t pid req

let handle_readlink t pid vp path =
  let abs = canon t vp path in
  if mount_of t abs <> None then deny Errno.EINVAL
  else perform t pid (Syscall.Readlink abs)

let handle_rename t pid vp ~src ~dst =
  let asrc = canon t vp src and adst = canon t vp dst in
  let req = Syscall.Rename { src = asrc; dst = adst } in
  match (mount_of t asrc, mount_of t adst) with
  | Some (d1, r1), Some (d2, r2) when d1 == d2 ->
    guarded req (fun () -> answer t pid unit (d1.Remote.r_rename r1 r2))
  | Some _, _ | _, Some _ -> guarded req (fun () -> deny Errno.EXDEV)
  | None, None -> perform t pid req

let handle_chdir t pid vp path =
  let abs = canon t vp path in
  let enter () =
    vp.vcwd <- Path.normalize abs;
    emulate t pid (Ok Syscall.Unit)
  in
  match mount_of t abs with
  | Some (driver, rpath) ->
    (match driver.Remote.r_stat rpath with
     | Ok st when st.Fs.st_kind = Inode.Directory -> enter ()
     | Ok _ -> deny Errno.ENOTDIR
     | Error e -> deny e)
  | None ->
    authorized t (Syscall.Chdir abs) (fun () ->
        match delegate t (Syscall.Stat abs) with
        | Ok (Syscall.Stat_v st) when st.Fs.st_kind = Inode.Directory -> enter ()
        | Ok (Syscall.Stat_v _) -> deny Errno.ENOTDIR
        | Ok _ -> deny Errno.EINVAL
        | Error e -> deny e)

let handle_getacl t pid vp path =
  let abs = canon t vp path in
  match mount_of t abs with
  | Some (driver, rpath) -> answer t pid str (driver.Remote.r_getacl rpath)
  | None -> answer t pid str (Rights_table.getacl t.enforce t.caller ~delegate:(delegate t) abs)

let handle_setacl t pid vp ~path ~entry =
  let abs = canon t vp path in
  match mount_of t abs with
  | Some (driver, rpath) -> answer t pid unit (driver.Remote.r_setacl rpath entry)
  | None -> answer t pid unit (Rights_table.setacl t.enforce t.caller abs ~entry)

let handle_spawn t vp ~path ~args =
  let abs = canon t vp path in
  if mount_of t abs <> None then
    (* Remote programs are staged in before execution (Fig. 3). *)
    deny Errno.EXDEV
  else
    let req = Syscall.Spawn { path = abs; args } in
    (* The kernel spawns as the supervising account and inherits the
       tracer; the child's box-side state appears at the Spawned event. *)
    authorized t req (fun () -> Trace.Rewrite req)

let handle_kill t ~pid:_ ~target =
  (* A boxed process may signal only processes with the same identity:
     exactly the members of its own box. *)
  if member t target then Trace.Pass else deny Errno.EPERM

(* ------------------------------------------------------------------ *)
(* The dispatch.                                                       *)
(* ------------------------------------------------------------------ *)

(* The object path(s) a request names, for the audit trail: the paths
   the rights table lists, canonical, plus a symlink's text and a
   signal's target.  They are taken before the dispatch, as it finds
   them (a chdir moves the cwd), and made canonical as [canon] makes
   them but host-side: the dispatch pays for its own walk, and the
   trail adds no simulated time. *)
let audit_paths t vp req =
  let c path =
    redirect t (fst (Fs.canonical_parents (Kernel.fs t.bx_kernel) (Path.join vp.vcwd path)))
  in
  match (req, Rights_table.of_request req) with
  | Syscall.Kill { pid = target; _ }, _ -> (Printf.sprintf "pid:%d" target, None)
  | Syscall.Symlink { target; path }, _ -> (c path, Some target)
  | _, (_, [ path ]) -> (c path, None)
  | _, (_, [ path; path2 ]) -> (c path, Some (c path2))
  | _, (_, _) -> ("", None)

let audit_record t ~pid req audit action =
  (match action with
   | Trace.Deny e ->
     Log.debug (fun m ->
         m "deny pid=%d identity=%s %s -> %s" pid (identity_string t)
           (Syscall.name req) (Errno.to_string e))
   | Trace.Pass | Trace.Rewrite _ -> ());
  match audit with
  | None -> ()
  | Some (trail, (path, path2)) ->
    (* Record only object-naming operations: fd-level traffic was judged
       at open time and would drown the trail. *)
    if path <> "" then
      let verdict =
        match action with
        | Trace.Deny e -> Audit.Denied e
        | Trace.Pass | Trace.Rewrite _ -> Audit.Allowed
      in
      Audit.record trail
        ~time:(Kernel.now t.bx_kernel)
        ~pid ~identity:(identity_string t)
        ~op:(Syscall.name req) ~path ?path2 verdict

(* The decision taxonomy: every entry stop is a [box.trap]; it resolves
   to pass / deny / nullify (a rewrite-to-getpid with a pending result
   to inject — the emulation idiom) / rewrite (a genuine substitution,
   e.g. the I/O-channel coercion). *)
let metric_action t ~pid action =
  Metrics.incr t.m_trap;
  match action with
  | Trace.Pass -> Metrics.incr t.m_pass
  | Trace.Deny _ -> Metrics.incr t.m_deny
  | Trace.Rewrite Syscall.Getpid when Hashtbl.mem t.pending pid ->
    Metrics.incr t.m_nullify
  | Trace.Rewrite _ -> Metrics.incr t.m_rewrite

let rec on_entry t ~pid req =
  let vp = vproc_of t pid in
  let audit = Option.map (fun trail -> (trail, audit_paths t vp req)) t.bx_audit in
  let action = dispatch t ~pid vp req in
  metric_action t ~pid action;
  audit_record t ~pid req audit action;
  action

and dispatch t ~pid vp req =
  match req with
  | Syscall.Getpid | Syscall.Getppid | Syscall.Getuid | Syscall.Waitpid _
  | Syscall.Exit _ | Syscall.Getenv _ | Syscall.Setenv _ ->
    Trace.Pass
  | Syscall.Pipe ->
    (* The kernel creates the pipe in the tracee's own table; the box
       records the returned descriptors so later fd traffic on them is
       recognized and passed through. *)
    Hashtbl.replace t.pending pid (fun result ->
        (match result with
         | Ok (Syscall.Fd_pair { rd; wr }) ->
           Hashtbl.replace vp.passthrough rd ();
           Hashtbl.replace vp.passthrough wr ()
         | Ok _ | Error _ -> ());
        result);
    Trace.Pass
  | Syscall.Compute _ -> Trace.Pass
  | Syscall.Get_user_name -> emulate t pid (Ok (Syscall.Str (identity_string t)))
  | Syscall.Getcwd -> emulate t pid (Ok (Syscall.Str vp.vcwd))
  | Syscall.Chdir path -> handle_chdir t pid vp path
  | Syscall.Open { path; flags; mode } -> handle_open t pid vp path flags mode
  | Syscall.Close fd -> handle_close t pid vp fd
  | Syscall.Read { fd; len } -> handle_read t pid vp fd ~len ~at:None
  | Syscall.Pread { fd; off; len } -> handle_read t pid vp fd ~len ~at:(Some off)
  | Syscall.Write { fd; data } -> handle_write t pid vp fd ~data ~at:None
  | Syscall.Pwrite { fd; off; data } -> handle_write t pid vp fd ~data ~at:(Some off)
  | Syscall.Lseek { fd; off; whence } -> handle_lseek t pid vp fd ~off ~whence
  | Syscall.Stat path -> handle_stat t pid vp path ~follow:true
  | Syscall.Lstat path -> handle_stat t pid vp path ~follow:false
  | Syscall.Fstat fd -> handle_fstat t pid vp fd
  | Syscall.Mkdir { path; mode } -> handle_mkdir t pid vp path mode
  | Syscall.Rmdir path -> handle_rmdir t pid vp path
  | Syscall.Unlink path -> handle_unlink t pid vp path
  | Syscall.Link { target; path } ->
    perform_local t pid (Syscall.Link { target = canon t vp target; path = canon t vp path })
  | Syscall.Symlink { target; path } ->
    perform_local t pid (Syscall.Symlink { target; path = canon t vp path })
  | Syscall.Readlink path -> handle_readlink t pid vp path
  | Syscall.Rename { src; dst } -> handle_rename t pid vp ~src ~dst
  | Syscall.Readdir path -> handle_readdir t pid vp path
  | Syscall.Chmod { path; mode } ->
    (* Unix mode bits are supervisor-side details; requiring write keeps
       visitors from locking the supervisor out of its own files. *)
    perform t pid (Syscall.Chmod { path = canon t vp path; mode })
  | Syscall.Chown _ -> perform t pid req
  | Syscall.Truncate { path; len } ->
    perform t pid (Syscall.Truncate { path = canon t vp path; len })
  | Syscall.Spawn { path; args } -> handle_spawn t vp ~path ~args
  | Syscall.Kill { pid = target; _ } -> handle_kill t ~pid ~target
  | Syscall.Getacl path -> handle_getacl t pid vp path
  | Syscall.Setacl { path; entry } -> handle_setacl t pid vp ~path ~entry

let on_exit t ~pid _req result =
  match Hashtbl.find_opt t.pending pid with
  | Some f ->
    Hashtbl.remove t.pending pid;
    Trace.Replace (f result)
  | None -> Trace.Keep

let flush_vproc t vp =
  Hashtbl.iter
    (fun _ vfile ->
      match vfile.backing with
      | Local sfd -> ignore (delegate t (Syscall.Close sfd))
      | Remote_write { rpath; driver; buf } ->
        ignore (driver.Remote.r_write rpath (Buffer.contents buf))
      | Remote_read _ -> ())
    vp.vfds;
  Hashtbl.reset vp.vfds

let on_event t event =
  match event with
  | Trace.Spawned { pid; parent } ->
    let vcwd, inherited =
      match Hashtbl.find_opt t.vprocs parent with
      | Some pvp -> (pvp.vcwd, Hashtbl.copy pvp.passthrough)
      | None -> (t.bx_home, Hashtbl.create 4)
    in
    let vp =
      { vpid = pid; vcwd; vfds = Hashtbl.create 8; next_vfd = 1000;
        passthrough = inherited }
    in
    Hashtbl.replace t.vprocs pid vp;
    (match Kernel.process_view t.bx_kernel pid with
     | Some view -> Iochannel.attach t.channel view
     | None -> ())
  | Trace.Exited { pid; _ } ->
    (match Hashtbl.find_opt t.vprocs pid with
     | Some vp ->
       flush_vproc t vp;
       Hashtbl.remove t.vprocs pid
     | None -> ());
    Hashtbl.remove t.pending pid

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)
(* ------------------------------------------------------------------ *)

let box_counter = ref 0

let create kernel_ ~supervisor_uid ~identity ?(mounts = []) ?(small_io_threshold = 512)
    ?(audit = false) ?(caching = true) ?bytecode () =
  incr box_counter;
  let sup = Kernel.make_view kernel_ ~uid:supervisor_uid () in
  let bx_base = Printf.sprintf "/tmp/box_%d" !box_counter in
  let bx_home = bx_base ^ "/home" in
  let bx_passwd = bx_base ^ "/passwd" in
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let unit_of req =
    match Kernel.delegate kernel_ sup req with
    | Ok _ -> Ok ()
    | Error e -> Error e
  in
  let* () = unit_of (Syscall.Mkdir { path = bx_base; mode = 0o700 }) in
  let* () = unit_of (Syscall.Mkdir { path = bx_home; mode = 0o700 }) in
  (* The private /etc/passwd copy: the visiting identity first, mapped
     to the supervising account's uid, then the system's entries. *)
  let system_passwd =
    match Idbox_vfs.Fs.read_file (Kernel.fs kernel_) ~uid:supervisor_uid "/etc/passwd" with
    | Ok text -> text
    | Error _ -> ""
  in
  (* The passwd format cannot carry colons in the account field, and
     qualified principals ("globus:/O=.../CN=...") contain one — so the
     entry uses the name portion (the subject DN, the user@realm, the
     hostname), which is colon-free for every standard scheme.  whoami
     then shows the visitor's global name, as in Fig. 2. *)
  let visitor_entry =
    Printf.sprintf "%s:x:%d:%d:identity box visitor:%s:/bin/sh\n"
      identity.Principal.name supervisor_uid supervisor_uid bx_home
  in
  let* () =
    match
      Idbox_vfs.Fs.write_file (Kernel.fs kernel_) ~uid:supervisor_uid ~mode:0o600
        bx_passwd (visitor_entry ^ system_passwd)
    with
    | Ok () -> Ok ()
    | Error e -> Error e
  in
  let* channel = Iochannel.create kernel_ ~supervisor:sup () in
  let enforce = Enforce.create ~caching ?bytecode kernel_ ~supervisor:sup () in
  let registry = Kernel.metrics kernel_ in
  let t =
    {
      bx_kernel = kernel_;
      sup;
      bx_identity = identity;
      caller = { Rights_table.identity; limit = None };
      enforce;
      channel;
      vprocs = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      mounts;
      bx_base;
      bx_home;
      bx_passwd;
      small_io = small_io_threshold;
      bx_audit = (if audit then Some (Audit.create ()) else None);
      bx_handler = None;
      m_delegate = Metrics.counter registry "box.delegate";
      m_trap = Metrics.counter registry "box.trap";
      m_pass = Metrics.counter registry "box.pass";
      m_deny = Metrics.counter registry "box.deny";
      m_nullify = Metrics.counter registry "box.nullify";
      m_rewrite = Metrics.counter registry "box.rewrite";
    }
  in
  let* () = Enforce.write_acl enforce ~dir:bx_home (Acl.for_owner identity) in
  let handler =
    Tracer.make kernel_
      ~on_entry:(fun ~pid req -> on_entry t ~pid req)
      ~on_exit:(fun ~pid req result -> on_exit t ~pid req result)
      ~on_event:(fun ev -> on_event t ev)
      ()
  in
  t.bx_handler <- Some handler;
  Ok t

let box_env t =
  [
    ("HOME", t.bx_home);
    ("USER", identity_string t);
    ("PATH", "/bin");
  ]

let spawn t ?(check_exec = true) ~path ~args () =
  let abs = Path.normalize path in
  let proceed () =
    Kernel.spawn t.bx_kernel ~uid:t.sup.View.uid ~cwd:"/" ~env:(box_env t)
      ~tracer:(handler t) ~path:abs ~args ()
  in
  if check_exec then
    match Rights_table.authorize t.enforce t.caller Rights_table.execute [ abs ] with
    | Ok () -> proceed ()
    | Error e -> Error e
  else proceed ()

let spawn_main t ~main ~args =
  (* Like a Chirp session at auth: the process's first checks find a
     program that matches the current policy generation. *)
  Enforce.refresh_bytecode t.enforce;
  Kernel.spawn_main t.bx_kernel ~uid:t.sup.View.uid ~cwd:"/" ~env:(box_env t)
    ~tracer:(handler t) ~main ~args ()

let audit_trail t = t.bx_audit

let set_cwd t ~pid cwd =
  match Hashtbl.find_opt t.vprocs pid with
  | Some vp -> vp.vcwd <- Path.normalize cwd
  | None -> ()

let set_acl t ~dir acl = Enforce.write_acl t.enforce ~dir acl

let grant t ~dir ~pattern rights =
  let current =
    match Enforce.dir_acl t.enforce dir with Some acl -> acl | None -> Acl.empty
  in
  set_acl t ~dir (Acl.grant current ~pattern rights)
