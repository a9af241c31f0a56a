(* The dentry cache's key: who resolves, whether a final symlink is
   followed, and the path as given. *)
type dentry_key = {
  d_uid : int;
  d_follow : bool;
  d_path : string;
}

module Dentries = Hashtbl.Make (struct
  type t = dentry_key

  let equal a b =
    a.d_uid = b.d_uid && a.d_follow = b.d_follow && String.equal a.d_path b.d_path

  let hash k = (((Hashtbl.hash k.d_path * 31) + k.d_uid) * 2) + Bool.to_int k.d_follow
end)

type t = {
  fs_root : Inode.t;
  clock : unit -> int64;
  mutable next_ino : int;
  mutable fs_gen : int;
      (* Global mutation generation: bumped on every namespace- or
         ACL-relevant change anywhere in the tree.  Validates caches keyed
         on whole-path resolution (see [Enforce]'s name cache, and
         [dentries] below). *)
  dentries : (Inode.t, Errno.t) result Dentries.t;
      (* Successful resolutions of [fs_gen] = [dentry_gen]. *)
  mutable dentry_gen : int;
  mutable dentry_hits : int;
  mutable dentry_misses : int;
  mutable dentry_flushes : int;
  mutable policy_gen : int;
      (* Policy generation: bumped with [fs_gen] except when a plain file
         is created, unlinked or renamed (see [note_plain_change]).  Validates
         the compiled policy program, whose answers such changes cannot
         move. *)
  mutable watched : string option;
      (* The ACL file's basename ([Enforce] registers ".__acl").  A
         namespace change to an entry of that name, or an open-for-write
         that lands on one, bumps the directory's ACL generation.  Content
         writes land through file descriptors, bypassing [Fs], so the bump
         happens at open time. *)
}

type stat = {
  st_ino : int;
  st_kind : Inode.kind;
  st_mode : int;
  st_uid : int;
  st_nlink : int;
  st_size : int;
  st_mtime : int64;
  st_ctime : int64;
}

type open_flags = {
  rd : bool;
  wr : bool;
  creat : bool;
  excl : bool;
  trunc : bool;
  append : bool;
}

let rdonly =
  { rd = true; wr = false; creat = false; excl = false; trunc = false; append = false }

let wronly_create =
  { rd = false; wr = true; creat = true; excl = false; trunc = true; append = false }

(* The single symlink-expansion budget, shared by every resolver: the
   kernel-side [walk], the O_CREAT dangling-link expansion, and the
   supervisor-side canonicalisation in [Enforce].  Both sides must agree
   on when ELOOP fires, or the box's verdict diverges from the kernel's
   behaviour on deep chains. *)
let symlink_limit = 40

let create ?(clock = fun () -> 0L) () =
  let root = Inode.make_dir ~ino:1 ~uid:0 ~mode:0o755 ~now:(clock ()) in
  { fs_root = root; clock; next_ino = 2; fs_gen = 0;
    dentries = Dentries.create 64; dentry_gen = 0; dentry_hits = 0;
    dentry_misses = 0; dentry_flushes = 0; policy_gen = 0; watched = None }

let root t = t.fs_root

let generation t = t.fs_gen
let policy_generation t = t.policy_gen

let watch_basename t name = t.watched <- Some name

let is_watched t name =
  match t.watched with Some w -> String.equal name w | None -> false

(* A plain file: its only policy-visible trait is the directory that
   holds it, whose ACL governs it. *)
let is_plain inode =
  match Inode.kind inode with
  | Inode.Regular | Inode.Fifo -> true
  | Inode.Directory | Inode.Symlink -> false

(* Generation bumps are host-side bookkeeping: the mutating operation
   itself is what the kernel charges for, so bumping is free. *)
let note_global t =
  t.fs_gen <- t.fs_gen + 1;
  t.policy_gen <- t.policy_gen + 1

let note_mutation t dir =
  note_global t;
  Inode.bump_gen dir

(* A change that can alter what [dir]'s ACL file reads as: everything
   [note_mutation] does, and the directory's ACL generation too. *)
let note_acl_change t dir =
  note_mutation t dir;
  Inode.bump_acl_gen dir

(* A plain file created, unlinked or renamed under a name other than
   the watched one, replacing nothing or another plain file.  The
   compiled policy answers such a path from its parent directory's ACL
   whether or not the file exists (the same ACL its path-table entry
   would hold), so the policy generation stays; name caches and the
   directory's own token still move. *)
let note_plain_change t dir =
  t.fs_gen <- t.fs_gen + 1;
  Inode.bump_gen dir

(* A namespace change to the entry [name] of [dir]: creating, removing or
   replacing the watched name is an ACL change; [plain] says the change
   is a plain-file one (see [note_plain_change]). *)
let note_entry t dir name ~plain =
  if is_watched t name then note_acl_change t dir
  else if plain then note_plain_change t dir
  else note_mutation t dir

let alloc_ino t =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  ino

let make_pipe t = Inode.make_pipe ~ino:(alloc_ino t) ~now:(t.clock ())

let searchable ~uid dir =
  Perm.check ~uid ~owner:(Inode.uid dir) ~mode:(Inode.mode dir) Perm.X

(* The resolution engine.  [trail] is the stack of ancestor directories of
   [cur] (nearest first), used to resolve ".." correctly even through
   symlink targets.  [nexp] counts symlink expansions for ELOOP. *)
let walk t ~uid ~follow_last trail cur comps =
  let rec go trail cur comps nexp =
    match comps with
    | [] -> Ok cur
    | name :: rest ->
      if Inode.kind cur <> Inode.Directory then Error Errno.ENOTDIR
      else if not (searchable ~uid cur) then Error Errno.EACCES
      else if String.equal name ".." then
        (match trail with
         | [] -> go [] cur rest nexp
         | parent :: trail' -> go trail' parent rest nexp)
      else
        (match Inode.dir_find cur name with
         | None -> Error Errno.ENOENT
         | Some child ->
           (match Inode.kind child with
            | Inode.Symlink when rest <> [] || follow_last ->
              if nexp >= symlink_limit then Error Errno.ELOOP
              else
                let target = Inode.link_target child in
                let tcomps = Path.components target in
                if Path.is_absolute target then
                  go [] t.fs_root (tcomps @ rest) (nexp + 1)
                else go trail cur (tcomps @ rest) (nexp + 1)
            | Inode.Symlink | Inode.Regular | Inode.Directory | Inode.Fifo ->
              go (cur :: trail) child rest nexp))
  in
  go trail cur comps 0

(* The front end of [walk]: plain names are looked up straight from
   [path], with no component list.  At the first ".." or symlink to
   follow, the rest of the path from that component on goes to [walk]
   with the trail scanned so far; nothing has been expanded yet, so its
   ELOOP budget is whole. *)
let rec scan t ~uid ~follow_last path n trail cur i =
  if i >= n then Ok cur
  else if path.[i] = '/' then scan t ~uid ~follow_last path n trail cur (i + 1)
  else
    let j = Path.component_end path i in
    if j - i = 1 && path.[i] = '.' then scan t ~uid ~follow_last path n trail cur j
    else if j - i = 2 && path.[i] = '.' && path.[i + 1] = '.' then
      walk_rest t ~uid ~follow_last path n trail cur i
    else if Inode.kind cur <> Inode.Directory then Error Errno.ENOTDIR
    else if not (searchable ~uid cur) then Error Errno.EACCES
    else
      match Inode.dir_find cur (String.sub path i (j - i)) with
      | None -> Error Errno.ENOENT
      | Some child
        when Inode.kind child = Inode.Symlink
             && (follow_last || Path.component_count (String.sub path j (n - j)) > 0) ->
        walk_rest t ~uid ~follow_last path n trail cur i
      | Some child -> scan t ~uid ~follow_last path n (cur :: trail) child j

and walk_rest t ~uid ~follow_last path n trail cur i =
  walk t ~uid ~follow_last trail cur (Path.components (String.sub path i (n - i)))

let resolve_uncached t ~uid ~follow_last path =
  scan t ~uid ~follow_last path (String.length path) [] t.fs_root 0

(* {1 The dentry cache}

   A resolution depends on the entries of the directories it passes,
   their modes and owners, and the targets of the symlinks it follows.
   Every change to any of these moves [fs_gen]: an entry added, removed
   or renamed (a symlink's creation among them), and a chmod or chown.
   A symlink's target never changes, and a content write changes no
   entry.  So a successful answer holds while [fs_gen] stands still,
   and the cache keeps those of one generation only, emptied when it
   moves or when it is full, as [Enforce]'s tables are.  A failure is
   scanned again each time.  The cache is host-side bookkeeping: the
   kernel charges a syscall the same whatever answers it. *)

let dentry_capacity = 8192

(* [clear], not [reset]: the table keeps the buckets it grew, so
   refilling it after a flush does not pay for growing it again. *)
let flush_dentries t =
  t.dentry_flushes <- t.dentry_flushes + 1;
  Dentries.clear t.dentries

let cached_resolve t ~uid ~follow_last path =
  if t.dentry_gen <> t.fs_gen then begin
    if Dentries.length t.dentries > 0 then flush_dentries t;
    t.dentry_gen <- t.fs_gen
  end;
  let key = { d_uid = uid; d_follow = follow_last; d_path = path } in
  match Dentries.find t.dentries key with
  | found ->
    t.dentry_hits <- t.dentry_hits + 1;
    found
  | exception Not_found ->
    t.dentry_misses <- t.dentry_misses + 1;
    let answer = resolve_uncached t ~uid ~follow_last path in
    (match answer with
     | Ok _ ->
       if Dentries.length t.dentries >= dentry_capacity then flush_dentries t;
       Dentries.add t.dentries key answer
     | Error _ -> ());
    answer

type dentry_stats = {
  entries : int;
  hits : int;
  misses : int;
  flushes : int;
}

let dentry_stats t =
  { entries = Dentries.length t.dentries; hits = t.dentry_hits;
    misses = t.dentry_misses; flushes = t.dentry_flushes }

let resolve t ~uid path = cached_resolve t ~uid ~follow_last:true path

let resolve_no_follow t ~uid path = cached_resolve t ~uid ~follow_last:false path

let resolve_parent t ~uid path =
  match List.rev (Path.components path) with
  | [] -> Error Errno.EINVAL
  | final :: rev_parents ->
    if String.equal final ".." then Error Errno.EINVAL
    else
      (match walk t ~uid ~follow_last:true [] t.fs_root (List.rev rev_parents) with
       | Error e -> Error e
       | Ok dir ->
         if Inode.kind dir <> Inode.Directory then Error Errno.ENOTDIR
         else Ok (dir, final))

(* {1 The canonicaliser}

   Ancestor symlinks are resolved as root with a directory-inode cursor:
   the cursor is what [resolve_no_follow ~uid:0] of the canonical prefix
   would return ([None]: an error), so looking the next name up in it
   answers the [lstat] of the next prefix without walking from "/".
   Every prefix it extends is free of symlinks, which keeps that true. *)

let lookup_as_root cur name =
  match cur with
  | Some dir when Inode.kind dir = Inode.Directory && searchable ~uid:0 dir ->
    Inode.dir_find dir name
  | Some _ | None -> None

(* Over a normal path: the number of non-final components, or -1 at the
   first non-final one that is a symlink. *)
let rec canonical_scan p n cur i steps =
  let j = Path.component_end p i in
  if j >= n then steps
  else
    let next = lookup_as_root cur (String.sub p i (j - i)) in
    match next with
    | Some child when Inode.kind child = Inode.Symlink -> -1
    | Some _ | None -> canonical_scan p n next (j + 1) (steps + 1)

(* The list code, for paths with a symlink among their ancestors.
   [top] is the canonical prefix with its cursor, [below] the shorter
   prefixes (innermost first), so ".." pops to the true parent.  Past
   the expansion budget nothing more is looked up: no symlink can be
   expanded any more, so the rest is lexical. *)
let canonical_walk t comps =
  let join resolved comp =
    if String.equal resolved "/" then "/" ^ comp else resolved ^ "/" ^ comp
  in
  let root = ("/", Some t.fs_root) in
  let rec go ((resolved, cur) as top) below comps expansions steps =
    match comps with
    | [] -> (resolved, steps)
    | [ final ] -> (join resolved final, steps)
    | comp :: rest ->
      let steps = steps + 1 in
      if String.equal comp ".." then
        match below with
        | [] -> go top [] rest expansions steps
        | parent :: below' -> go parent below' rest expansions steps
      else
        let found = if expansions < symlink_limit then lookup_as_root cur comp else None in
        match found with
        | Some child when Inode.kind child = Inode.Symlink ->
          let target = Inode.link_target child in
          let comps = Path.components target @ rest in
          if Path.is_absolute target then go root [] comps (expansions + 1) steps
          else go top below comps (expansions + 1) steps
        | Some _ | None ->
          go (join resolved comp, found) (top :: below) rest expansions steps
  in
  go root [] comps 0 0

let canonical_parents t path =
  let p = Path.normalize path in
  let steps = canonical_scan p (String.length p) (Some t.fs_root) 1 0 in
  if steps >= 0 then (p, steps) else canonical_walk t (Path.components p)

(* A ".." in a link target pops to the real parent, as in [walk]: a
   lexical join would cancel it against a symlink's name, and the check
   would judge one directory while the kernel opens another (§6,
   pitfall #2).  Without a "..", the join walks the same components. *)
let expand_link t ~link target =
  let dir = Path.dirname link in
  let comps = Path.components target in
  if Path.is_normal dir && not (List.exists (String.equal "..") comps) then
    canonical_parents t (Path.join dir target)
  else
    let from = if Path.is_absolute target then [] else Path.components dir in
    canonical_walk t (from @ comps)

let writable_dir ~uid dir =
  Perm.check ~uid ~owner:(Inode.uid dir) ~mode:(Inode.mode dir) Perm.W
  && searchable ~uid dir

let dir_inode t path =
  match resolve t ~uid:0 path with
  | Ok inode when Inode.kind inode = Inode.Directory -> Some inode
  | Ok _ | Error _ -> None

let dir_token t path =
  Option.map (fun dir -> (Inode.ino dir, Inode.gen dir)) (dir_inode t path)

(* The entry an open or a chmod of [path] reaches, as (directory, name):
   the final symlink chain is followed as root, within [symlink_limit].
   This is bookkeeping, not an access check.  When the final component is
   a symlink, the path is made canonical and each hop is taken with
   [expand_link], so a target's ".." pops to the real parent, as in
   [walk]. *)
let landing t path =
  let entry p =
    match resolve_parent t ~uid:0 p with
    | Ok (dir, name) -> Some (dir, name, Inode.dir_find dir name)
    | Error _ -> None
  in
  let rec follow p depth =
    match entry p with
    | Some (_, _, Some e) when Inode.kind e = Inode.Symlink && depth < symlink_limit ->
      follow (fst (expand_link t ~link:p (Inode.link_target e))) (depth + 1)
    | Some (dir, name, _) -> Some (dir, name)
    | None -> None
  in
  match entry path with
  | Some (_, _, Some e) when Inode.kind e = Inode.Symlink ->
    follow (fst (canonical_walk t (Path.components path))) 0
  | Some (dir, name, _) -> Some (dir, name)
  | None -> None

(* A successful open-for-write of an existing file.  Writes land through
   descriptors after the open, so open time is the one choke point (opens
   and writes never interleave with checks or digest reads in the
   single-threaded simulation).  Landing on the watched name is an ACL
   change.  Any other file only changes its directory's *content*: the
   directory's own generation moves, so per-directory digests over file
   contents revalidate, while the global counters and the ACL generation
   stay, so name caches, the compiled program and cached ACLs keep their
   hits. *)
let note_write t path =
  match landing t path with
  | Some (dir, name) when is_watched t name -> note_acl_change t dir
  | Some (dir, _) -> Inode.bump_gen dir
  | None -> ()

(* chmod/chown change who the Unix-permission fallback grants to, and
   whether the supervisor can read an ACL file: an ACL change of the
   directory holding the entry reached. *)
let note_attr_change t path =
  match landing t path with
  | Some (dir, _) -> note_acl_change t dir
  | None -> note_global t

let rec open_file_depth t ~uid ~flags ~mode ~depth path =
  if depth >= symlink_limit then Error Errno.ELOOP
  else
    match resolve t ~uid path with
    | Ok inode ->
      if flags.creat && flags.excl then Error Errno.EEXIST
      else if Inode.kind inode = Inode.Directory then Error Errno.EISDIR
      else if Inode.kind inode = Inode.Symlink then
        (* Unreachable after a following resolve, but keep total. *)
        Error Errno.ELOOP
      else
        let owner = Inode.uid inode and m = Inode.mode inode in
        if flags.rd && not (Perm.check ~uid ~owner ~mode:m Perm.R) then
          Error Errno.EACCES
        else if flags.wr && not (Perm.check ~uid ~owner ~mode:m Perm.W) then
          Error Errno.EACCES
        else begin
          if flags.wr && flags.trunc then begin
            Inode.truncate inode ~len:0;
            Inode.set_mtime inode (t.clock ())
          end;
          if flags.wr then note_write t path;
          Ok inode
        end
    | Error Errno.ENOENT when flags.creat ->
      (match resolve_parent t ~uid path with
       | Error e -> Error e
       | Ok (dir, name) ->
         (match Inode.dir_find dir name with
          | Some entry when Inode.kind entry = Inode.Symlink ->
            (* O_CREAT|O_EXCL: POSIX requires EEXIST when the final
               component is a symlink, dangling or not — otherwise a
               visitor-planted link redirects the "fresh" file to a
               target of the attacker's choosing. *)
            if flags.excl then Error Errno.EEXIST
            else
              (* Dangling symlink: creation happens at the link target,
                 the same path the supervisor's check expands it to. *)
              let expanded, _ = expand_link t ~link:path (Inode.link_target entry) in
              open_file_depth t ~uid ~flags ~mode ~depth:(depth + 1) expanded
          | Some _ ->
            (* The entry exists but resolve said ENOENT: traversal race is
               impossible here, so treat as plain lookup success path. *)
            Error Errno.ENOENT
          | None ->
            if not (writable_dir ~uid dir) then Error Errno.EACCES
            else begin
              let inode =
                Inode.make_file ~ino:(alloc_ino t) ~uid ~mode ~now:(t.clock ())
              in
              Inode.dir_add dir name inode;
              Inode.set_mtime dir (t.clock ());
              note_entry t dir name ~plain:true;
              Ok inode
            end))
    | Error _ as e -> e

let open_file t ~uid ~flags ~mode path =
  if (not flags.rd) && not flags.wr then Error Errno.EINVAL
  else open_file_depth t ~uid ~flags ~mode ~depth:0 path

let mkdir t ~uid ~mode path =
  match resolve_parent t ~uid path with
  | Error e -> Error e
  | Ok (dir, name) ->
    (match Inode.dir_find dir name with
     | Some _ -> Error Errno.EEXIST
     | None ->
       if not (writable_dir ~uid dir) then Error Errno.EACCES
       else begin
         let child = Inode.make_dir ~ino:(alloc_ino t) ~uid ~mode ~now:(t.clock ()) in
         Inode.dir_add dir name child;
         Inode.set_mtime dir (t.clock ());
         note_entry t dir name ~plain:false;
         Ok child
       end)

let rmdir t ~uid path =
  match resolve_parent t ~uid path with
  | Error e -> Error e
  | Ok (dir, name) ->
    (* Parent write permission is judged before the name is looked up:
       a caller without it learns nothing about whether the name exists
       or the directory is empty (the existence-probe channel). *)
    if not (writable_dir ~uid dir) then Error Errno.EACCES
    else
    (match Inode.dir_find dir name with
     | None -> Error Errno.ENOENT
     | Some child ->
       if Inode.kind child <> Inode.Directory then Error Errno.ENOTDIR
       else if not (Inode.dir_is_empty child) then Error Errno.ENOTEMPTY
       else begin
         Inode.dir_remove dir name;
         Inode.decr_nlink child;
         Inode.set_mtime dir (t.clock ());
         note_entry t dir name ~plain:false;
         Ok ()
       end)

let unlink t ~uid path =
  match resolve_parent t ~uid path with
  | Error e -> Error e
  | Ok (dir, name) ->
    (* EACCES before ENOENT, as on Linux: see [rmdir]. *)
    if not (writable_dir ~uid dir) then Error Errno.EACCES
    else
    (match Inode.dir_find dir name with
     | None -> Error Errno.ENOENT
     | Some child ->
       if Inode.kind child = Inode.Directory then Error Errno.EISDIR
       else begin
         Inode.dir_remove dir name;
         Inode.decr_nlink child;
         Inode.set_mtime dir (t.clock ());
         note_entry t dir name ~plain:(is_plain child);
         Ok ()
       end)

(* The watched (ACL) name never shares its inode with another name, and
   is never a symlink: a write through the other name, or to the link's
   target, would change the ACL without landing on the watched name, so
   nothing would bump.  [link] to or from it fails, as do [symlink] at
   it and renaming a multiply-linked file or a symlink onto it. *)
let link t ~uid ~target path =
  match resolve_no_follow t ~uid target with
  | Error e -> Error e
  | Ok src ->
    if Inode.kind src = Inode.Directory then Error Errno.EPERM
    else if is_watched t (Path.basename target) || is_watched t (Path.basename path)
    then Error Errno.EPERM
    else
      (match resolve_parent t ~uid path with
       | Error e -> Error e
       | Ok (dir, name) ->
         (match Inode.dir_find dir name with
          | Some _ -> Error Errno.EEXIST
          | None ->
            if not (writable_dir ~uid dir) then Error Errno.EACCES
            else begin
              Inode.dir_add dir name src;
              Inode.incr_nlink src;
              Inode.set_mtime dir (t.clock ());
              note_mutation t dir;
              Ok ()
            end))

let symlink t ~uid ~target path =
  match resolve_parent t ~uid path with
  | Error e -> Error e
  | Ok (_, name) when is_watched t name -> Error Errno.EPERM
  | Ok (dir, name) ->
    (match Inode.dir_find dir name with
     | Some _ -> Error Errno.EEXIST
     | None ->
       if not (writable_dir ~uid dir) then Error Errno.EACCES
       else begin
         let l = Inode.make_symlink ~ino:(alloc_ino t) ~uid ~target ~now:(t.clock ()) in
         Inode.dir_add dir name l;
         Inode.set_mtime dir (t.clock ());
         note_mutation t dir;
         Ok ()
       end)

let readlink t ~uid path =
  match resolve_no_follow t ~uid path with
  | Error e -> Error e
  | Ok inode ->
    if Inode.kind inode = Inode.Symlink then Ok (Inode.link_target inode)
    else Error Errno.EINVAL

(* Does directory [root] contain [needle] anywhere in its subtree
   (itself included)?  Guards rename against moving a directory into
   itself, which would detach an unreachable cycle. *)
let rec subtree_contains root needle =
  root == needle
  || Inode.kind root = Inode.Directory
     && List.exists
          (fun name ->
            match Inode.dir_find root name with
            | Some child -> subtree_contains child needle
            | None -> false)
          (Inode.dir_entries root)

let rename t ~uid ~src ~dst =
  match resolve_parent t ~uid src with
  | Error e -> Error e
  | Ok (sdir, sname) ->
    (match Inode.dir_find sdir sname with
     | None -> Error Errno.ENOENT
     | Some moving ->
       (match resolve_parent t ~uid dst with
        | Error e -> Error e
        | Ok (ddir, dname) ->
          if not (writable_dir ~uid sdir && writable_dir ~uid ddir) then
            Error Errno.EACCES
          else if
            Inode.kind moving = Inode.Directory && subtree_contains moving ddir
          then Error Errno.EINVAL
          else if
            is_watched t dname
            && (Inode.nlink moving > 1 || Inode.kind moving = Inode.Symlink)
          then Error Errno.EPERM
          else
            let replace ~plain =
              Inode.dir_remove sdir sname;
              Inode.dir_add ddir dname moving;
              Inode.set_mtime sdir (t.clock ());
              Inode.set_mtime ddir (t.clock ());
              note_entry t sdir sname ~plain;
              note_entry t ddir dname ~plain;
              Ok ()
            in
            (match Inode.dir_find ddir dname with
             | None -> replace ~plain:(is_plain moving)
             | Some existing when existing == moving -> Ok ()
             | Some existing ->
               (match (Inode.kind moving, Inode.kind existing) with
                | Inode.Directory, Inode.Directory ->
                  if Inode.dir_is_empty existing then begin
                    Inode.decr_nlink existing;
                    replace ~plain:false
                  end
                  else Error Errno.ENOTEMPTY
                | Inode.Directory, (Inode.Regular | Inode.Symlink | Inode.Fifo) ->
                  Error Errno.ENOTDIR
                | (Inode.Regular | Inode.Symlink | Inode.Fifo), Inode.Directory ->
                  Error Errno.EISDIR
                | (Inode.Regular | Inode.Symlink | Inode.Fifo),
                  (Inode.Regular | Inode.Symlink | Inode.Fifo) ->
                  Inode.decr_nlink existing;
                  replace ~plain:(is_plain moving && is_plain existing)))))

let readdir t ~uid path =
  match resolve t ~uid path with
  | Error e -> Error e
  | Ok dir ->
    if Inode.kind dir <> Inode.Directory then Error Errno.ENOTDIR
    else if not (Perm.check ~uid ~owner:(Inode.uid dir) ~mode:(Inode.mode dir) Perm.R)
    then Error Errno.EACCES
    else Ok (Inode.dir_entries dir)

let fstat inode =
  {
    st_ino = Inode.ino inode;
    st_kind = Inode.kind inode;
    st_mode = Inode.mode inode;
    st_uid = Inode.uid inode;
    st_nlink = Inode.nlink inode;
    st_size = Inode.size inode;
    st_mtime = Inode.mtime inode;
    st_ctime = Inode.ctime inode;
  }

let stat t ~uid path = Result.map fstat (resolve t ~uid path)

let lstat t ~uid path = Result.map fstat (resolve_no_follow t ~uid path)

let chmod t ~uid ~mode path =
  match resolve t ~uid path with
  | Error e -> Error e
  | Ok inode ->
    if uid <> 0 && uid <> Inode.uid inode then Error Errno.EPERM
    else begin
      Inode.set_mode inode mode;
      Inode.set_ctime inode (t.clock ());
      note_attr_change t path;
      Ok ()
    end

let chown t ~uid ~owner path =
  match resolve t ~uid path with
  | Error e -> Error e
  | Ok inode ->
    if uid <> 0 then Error Errno.EPERM
    else begin
      Inode.set_uid inode owner;
      Inode.set_ctime inode (t.clock ());
      note_attr_change t path;
      Ok ()
    end

let exists t ~uid path =
  match resolve t ~uid path with Ok _ -> true | Error _ -> false

(* No [trunc] on the open: [set_contents] replaces every byte and sets
   the length itself, and is then the one place the file's digest memo
   is dropped. *)
let write_file t ~uid ?(mode = Perm.default_file_mode) path contents =
  match open_file t ~uid ~flags:{ wronly_create with trunc = false } ~mode path with
  | Error e -> Error e
  | Ok inode ->
    Inode.set_contents inode contents;
    Inode.set_mtime inode (t.clock ());
    Ok ()

let read_file t ~uid path =
  Result.map Inode.contents (open_file t ~uid ~flags:rdonly ~mode:0 path)

let digest_file t ~uid path =
  Result.map Inode.digest (open_file t ~uid ~flags:rdonly ~mode:0 path)

let mkdir_p t ~uid ?(mode = Perm.default_dir_mode) path =
  let rec go prefix = function
    | [] -> Ok ()
    | comp :: rest ->
      let here = if String.equal prefix "/" then "/" ^ comp else prefix ^ "/" ^ comp in
      (match mkdir t ~uid ~mode here with
       | Ok _ | Error Errno.EEXIST -> go here rest
       | Error e -> Error e)
  in
  go "/" (Path.components path)
