module Syscall = Idbox_kernel.Syscall
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno
module Fs = Idbox_vfs.Fs

type target = Object | Governing | Entry | Self

type question = { arg : int; target : target; right : Right.t; or_write : bool }

type row = {
  guard : bool;
  reserve : bool;
  questions : question list;
  or_else : question list;
}

type limit = { grant : Rights.t; scope : string }
type caller = { identity : Idbox_identity.Principal.t; limit : limit option }

(* ------------------------------------------------------------------ *)
(* The table.                                                          *)

let q ?(arg = 0) ?(or_write = false) target right = { arg; target; right; or_write }

let row ?(guard = false) ?(reserve = false) ?(or_else = []) questions =
  { guard; reserve; questions; or_else }

let read = row ~guard:true [ q Object Read ]
let write = row ~guard:true [ q Object Write ]
let read_write = row ~guard:true [ q Object Read; q Object Write ]
let open_only = row ~guard:true []
let stat = row [ q Object List ]
let modify = row [ q Object Write ]
let execute = row [ q Object Execute ]
let list = row [ q Self List ]
let admin = row [ q Self Admin ]
let readlink = row [ q Entry List ]
let mkdir_row = row ~guard:true ~reserve:true [ q Entry Write ]
let rmdir_row = row [ q Entry Delete ~or_write:true ] ~or_else:[ q Self Delete ~or_write:true ]

(* [unlink] of a symlink is judged in its target's directory, the final
   link followed, while [rename] of the same link is judged where its
   name sits.  Every engine has always answered so; the table keeps the
   asymmetry and states it. *)
let unlink = row ~guard:true [ q Governing Delete ~or_write:true ]
let rename = row ~guard:true [ q Entry Delete ~or_write:true; q ~arg:1 Entry Write ]

(* [link]'s paths are the new name, then the target.  A hard link cannot
   be traced back to its target's directory once made, so the target
   must already be readable (Garfinkel pitfall #2). *)
let link = row ~guard:true [ q ~arg:1 Object Read; q Entry Write ]
let symlink = row ~guard:true [ q Entry Write ]

type rule = Ask of row | Refuse of Errno.t | Signal of int | Free

let of_request (req : Syscall.request) =
  match req with
  | Open { path; flags; _ } ->
    let row =
      match (flags.Fs.rd, flags.Fs.wr || flags.Fs.creat) with
      | true, true -> read_write
      | true, false -> read
      | false, true -> write
      | false, false -> open_only
    in
    (Ask row, [ path ])
  | Stat path | Lstat path -> (Ask stat, [ path ])
  | Chdir path | Readdir path | Getacl path -> (Ask list, [ path ])
  | Readlink path -> (Ask readlink, [ path ])
  | Mkdir { path; _ } -> (Ask mkdir_row, [ path ])
  | Rmdir path -> (Ask rmdir_row, [ path ])
  | Unlink path -> (Ask unlink, [ path ])
  | Link { target; path } -> (Ask link, [ path; target ])
  | Symlink { path; _ } -> (Ask symlink, [ path ])
  | Rename { src; dst } -> (Ask rename, [ src; dst ])
  | Chmod { path; _ } | Truncate { path; _ } -> (Ask modify, [ path ])
  | Spawn { path; _ } -> (Ask execute, [ path ])
  | Setacl { path; _ } -> (Ask admin, [ path ])
  | Chown { path; _ } -> (Refuse Errno.EPERM, [ path ])
  | Kill { pid; _ } -> (Signal pid, [])
  | Getpid | Getppid | Getuid | Get_user_name | Getcwd | Close _ | Read _
  | Write _ | Pread _ | Pwrite _ | Lseek _ | Fstat _ | Pipe | Waitpid _
  | Exit _ | Getenv _ | Setenv _ | Compute _ ->
    (Free, [])

(* ------------------------------------------------------------------ *)
(* Asking.                                                             *)

let guard row paths =
  if row.guard && List.exists Enforce.is_acl_file paths then Error Errno.EACCES
  else Ok ()

(* The path a question judges: the object, or its directory.  Finding
   the governing directory may charge a name-cache lookup, as it always
   has. *)
let judged e q paths =
  let path = List.nth paths q.arg in
  match q.target with
  | Object | Self -> path
  | Entry -> Path.dirname path
  | Governing -> Enforce.governing_dir e path

let within caller q judged =
  match caller.limit with
  | None -> true
  | Some { grant; scope } ->
    (Rights.mem q.right grant || (q.or_write && Rights.mem Right.Write grant))
    && Idbox_auth.Delegation.scope_contains ~prefix:scope judged

let ask_acl e caller q judged right =
  match q.target with
  | Object -> Enforce.check_object e ~identity:caller.identity ~path:judged right
  | Governing | Entry | Self ->
    Enforce.check_in_dir e ~identity:caller.identity ~dir:judged right

let ask e caller paths q =
  let judged = judged e q paths in
  if not (within caller q judged) then Error Errno.EACCES
  else
    match ask_acl e caller q judged q.right with
    | Error _ when q.or_write -> ask_acl e caller q judged Right.Write
    | verdict -> verdict

let rec ask_all e caller paths = function
  | [] -> Ok ()
  | q :: rest ->
    (match ask e caller paths q with
     | Ok () -> ask_all e caller paths rest
     | Error _ as refused -> refused)

(* The reserve right is asked in the first question's directory, under
   that question's limit. *)
let reserved e caller row paths =
  match row.questions with
  | q :: _ when row.reserve ->
    let dir = judged e q paths in
    if within caller q dir then Enforce.reserve_in_dir e ~identity:caller.identity ~dir
    else None
  | _ :: _ | [] -> None

(* [Ok (Some grant)] when the reserve right answered. *)
let decide e caller row paths =
  match guard row paths with
  | Error _ as refused -> refused
  | Ok () ->
    (match reserved e caller row paths with
     | Some _ as grant -> Ok grant
     | None ->
       (match ask_all e caller paths row.questions with
        | Ok () -> Ok None
        | Error _ when row.or_else <> [] ->
          (match ask_all e caller paths row.or_else with
           | Ok () -> Ok None
           | Error _ as refused -> refused)
        | Error _ as refused -> refused))

let authorize e caller row paths =
  match decide e caller row paths with Ok _ -> Ok () | Error _ as refused -> refused

let permits e caller row paths =
  List.for_all (fun q -> within caller q (judged e q paths)) row.questions

(* ------------------------------------------------------------------ *)
(* The ACL side effects.                                               *)

type delegate = Syscall.request -> Syscall.result

let ( let* ) = Result.bind
let visible names = List.filter (fun n -> not (String.equal n Acl.filename)) names

let listing = function
  | Ok (Syscall.Names names) -> Ok names
  | Ok _ -> Error Errno.EINVAL
  | Error _ as failed -> failed

let mkdir e caller ~delegate path ~mode =
  let* reserve = decide e caller mkdir_row [ path ] in
  let acl =
    match reserve with
    | Some grant ->
      let owner = Idbox_identity.Principal.to_string caller.identity in
      Some (Acl.of_entries [ Entry.make ~pattern:owner grant ])
    | None -> Enforce.dir_acl e (Path.dirname path)
  in
  let* _ = delegate (Syscall.Mkdir { path; mode }) in
  match acl with None -> Ok () | Some acl -> Enforce.write_acl e ~dir:path acl

let remove_dir e ~delegate path =
  ignore (delegate (Syscall.Unlink (Path.join path Acl.filename)));
  Enforce.invalidate e ~dir:path;
  delegate (Syscall.Rmdir path)

let rmdir e caller ~delegate path =
  let* () = authorize e caller rmdir_row [ path ] in
  let* names = listing (delegate (Syscall.Readdir path)) in
  if visible names <> [] then Error Errno.ENOTEMPTY
  else Result.map ignore (remove_dir e ~delegate path)

let readdir e caller ~delegate path =
  let* () = authorize e caller list [ path ] in
  Result.map visible (listing (delegate (Syscall.Readdir path)))

let getacl e caller ~delegate path =
  let dir =
    match delegate (Syscall.Stat path) with
    | Ok (Syscall.Stat_v st) when st.Fs.st_kind = Idbox_vfs.Inode.Directory -> path
    | Ok _ | Error _ -> Enforce.governing_dir e path
  in
  let* () = authorize e caller list [ dir ] in
  Ok (match Enforce.dir_acl e dir with Some acl -> Acl.to_string acl | None -> "")

let setacl e caller path ~entry =
  match Entry.of_line entry with
  | Error _ -> Error Errno.EINVAL
  | Ok parsed ->
    let* () = authorize e caller admin [ path ] in
    let current = match Enforce.dir_acl e path with Some acl -> acl | None -> Acl.empty in
    Enforce.write_acl e ~dir:path (Acl.set_entry current parsed)
