(* Filesystem semantics: the substrate every security argument rests on. *)

module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode
module Perm = Idbox_vfs.Perm
module Errno = Idbox_vfs.Errno

let errno = Alcotest.testable Errno.pp Errno.equal

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let expect_err ctx expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" ctx (Errno.to_string expected)
  | Error e -> Alcotest.check errno ctx expected e

let fresh () = Fs.create ()

(* --- permissions (Perm) ---------------------------------------------- *)

let perm_owner_other () =
  Alcotest.(check bool) "owner read 600" true
    (Perm.check ~uid:7 ~owner:7 ~mode:0o600 Perm.R);
  Alcotest.(check bool) "other read 600" false
    (Perm.check ~uid:8 ~owner:7 ~mode:0o600 Perm.R);
  Alcotest.(check bool) "other read 644" true
    (Perm.check ~uid:8 ~owner:7 ~mode:0o644 Perm.R);
  Alcotest.(check bool) "other write 644" false
    (Perm.check ~uid:8 ~owner:7 ~mode:0o644 Perm.W);
  Alcotest.(check bool) "root writes anything" true
    (Perm.check ~uid:0 ~owner:7 ~mode:0o000 Perm.W);
  Alcotest.(check bool) "root exec needs some x" false
    (Perm.check ~uid:0 ~owner:7 ~mode:0o644 Perm.X);
  Alcotest.(check bool) "root exec with x" true
    (Perm.check ~uid:0 ~owner:7 ~mode:0o755 Perm.X)

let perm_render () =
  Alcotest.(check string) "644" "rw-r--r--" (Perm.to_string ~mode:0o644);
  Alcotest.(check string) "755" "rwxr-xr-x" (Perm.to_string ~mode:0o755);
  Alcotest.(check string) "000" "---------" (Perm.to_string ~mode:0o000)

(* --- errno ------------------------------------------------------------ *)

let errno_roundtrip () =
  List.iter
    (fun e ->
      match Errno.of_string (Errno.to_string e) with
      | Some e' -> Alcotest.check errno (Errno.to_string e) e e'
      | None -> Alcotest.failf "%s did not roundtrip" (Errno.to_string e))
    Errno.all

(* --- basic file operations ------------------------------------------- *)

let create_write_read () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/data");
  ok "write" (Fs.write_file fs ~uid:0 "/data/f" "hello");
  Alcotest.(check string) "read back" "hello" (ok "read" (Fs.read_file fs ~uid:0 "/data/f"));
  let st = ok "stat" (Fs.stat fs ~uid:0 "/data/f") in
  Alcotest.(check int) "size" 5 st.Fs.st_size;
  Alcotest.(check bool) "regular" true (st.Fs.st_kind = Inode.Regular)

let open_flags_semantics () =
  let fs = fresh () in
  ok "seed" (Fs.write_file fs ~uid:0 "/f" "content");
  (* excl fails on existing *)
  let excl = { Fs.wronly_create with excl = true } in
  expect_err "excl" Errno.EEXIST (Fs.open_file fs ~uid:0 ~flags:excl ~mode:0o644 "/f");
  (* trunc empties *)
  ignore (ok "trunc" (Fs.open_file fs ~uid:0 ~flags:Fs.wronly_create ~mode:0o644 "/f"));
  Alcotest.(check string) "truncated" "" (ok "read" (Fs.read_file fs ~uid:0 "/f"));
  (* neither read nor write is invalid *)
  let neither = { Fs.rdonly with rd = false } in
  expect_err "neither" Errno.EINVAL (Fs.open_file fs ~uid:0 ~flags:neither ~mode:0 "/f");
  (* opening a directory fails EISDIR *)
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/d");
  expect_err "dir" Errno.EISDIR (Fs.open_file fs ~uid:0 ~flags:Fs.rdonly ~mode:0 "/d")

let missing_paths () =
  let fs = fresh () in
  expect_err "read missing" Errno.ENOENT (Fs.read_file fs ~uid:0 "/nope");
  expect_err "traverse file" Errno.ENOTDIR
    (let _ = ok "seed" (Fs.write_file fs ~uid:0 "/f" "x") in
     Fs.read_file fs ~uid:0 "/f/inside");
  expect_err "mkdir under missing" Errno.ENOENT
    (Result.map (fun _ -> ()) (Fs.mkdir fs ~uid:0 ~mode:0o755 "/a/b/c"))

let permission_enforcement () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/secret");
  ok "chmod" (Fs.chmod fs ~uid:0 ~mode:0o700 "/secret");
  ok "write" (Fs.write_file fs ~uid:0 "/secret/f" "hidden");
  (* Non-owner cannot traverse a 700 directory. *)
  expect_err "traverse denied" Errno.EACCES (Fs.read_file fs ~uid:1000 "/secret/f");
  (* Non-owner cannot read a 600 file even in an open directory. *)
  ok "write2" (Fs.write_file fs ~uid:0 ~mode:0o600 "/visible" "x");
  expect_err "read denied" Errno.EACCES (Fs.read_file fs ~uid:1000 "/visible");
  (* Nor write into a 755 directory they don't own. *)
  expect_err "create denied" Errno.EACCES
    (Fs.write_file fs ~uid:1000 "/newfile" "x")

let unlink_and_rmdir () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/d/sub");
  ok "write" (Fs.write_file fs ~uid:0 "/d/f" "x");
  expect_err "rmdir nonempty" Errno.ENOTEMPTY (Fs.rmdir fs ~uid:0 "/d");
  expect_err "rmdir file" Errno.ENOTDIR (Fs.rmdir fs ~uid:0 "/d/f");
  expect_err "unlink dir" Errno.EISDIR (Fs.unlink fs ~uid:0 "/d/sub");
  ok "unlink" (Fs.unlink fs ~uid:0 "/d/f");
  ok "rmdir sub" (Fs.rmdir fs ~uid:0 "/d/sub");
  ok "rmdir" (Fs.rmdir fs ~uid:0 "/d");
  expect_err "gone" Errno.ENOENT (Fs.stat fs ~uid:0 "/d")

let rename_semantics () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/a");
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/b");
  ok "write" (Fs.write_file fs ~uid:0 "/a/f" "payload");
  ok "rename" (Fs.rename fs ~uid:0 ~src:"/a/f" ~dst:"/b/g");
  expect_err "src gone" Errno.ENOENT (Fs.stat fs ~uid:0 "/a/f");
  Alcotest.(check string) "moved" "payload" (ok "read" (Fs.read_file fs ~uid:0 "/b/g"));
  (* Replacing an existing file drops the old inode's link. *)
  ok "write2" (Fs.write_file fs ~uid:0 "/b/h" "old");
  ok "rename2" (Fs.rename fs ~uid:0 ~src:"/b/g" ~dst:"/b/h");
  Alcotest.(check string) "replaced" "payload" (ok "read" (Fs.read_file fs ~uid:0 "/b/h"));
  (* Directory over non-empty directory refused. *)
  ok "m1" (Fs.mkdir_p fs ~uid:0 "/d1");
  ok "m2" (Fs.mkdir_p fs ~uid:0 "/d2/inner");
  expect_err "dir over nonempty" Errno.ENOTEMPTY
    (Fs.rename fs ~uid:0 ~src:"/d1" ~dst:"/d2");
  (* File over directory refused. *)
  expect_err "file over dir" Errno.EISDIR (Fs.rename fs ~uid:0 ~src:"/b/h" ~dst:"/d1");
  (* A directory cannot be moved into its own subtree (found by the
     random-op invariant fuzzer: it used to detach an unreachable
     cycle). *)
  ok "deep" (Fs.mkdir_p fs ~uid:0 "/m/inner");
  expect_err "dir into itself" Errno.EINVAL
    (Fs.rename fs ~uid:0 ~src:"/m" ~dst:"/m/sub");
  expect_err "dir into own child" Errno.EINVAL
    (Fs.rename fs ~uid:0 ~src:"/m" ~dst:"/m/inner/sub");
  (* Moving a directory sideways still works. *)
  ok "sideways" (Fs.rename fs ~uid:0 ~src:"/m/inner" ~dst:"/m2")

let hard_links () =
  let fs = fresh () in
  ok "write" (Fs.write_file fs ~uid:0 "/orig" "shared");
  ok "link" (Fs.link fs ~uid:0 ~target:"/orig" "/alias");
  let st = ok "stat" (Fs.stat fs ~uid:0 "/alias") in
  Alcotest.(check int) "nlink" 2 st.Fs.st_nlink;
  (* Same inode: writes through one name are visible through the other. *)
  ok "rewrite" (Fs.write_file fs ~uid:0 "/orig" "changed");
  Alcotest.(check string) "aliased" "changed" (ok "read" (Fs.read_file fs ~uid:0 "/alias"));
  ok "unlink orig" (Fs.unlink fs ~uid:0 "/orig");
  Alcotest.(check string) "survives" "changed" (ok "read" (Fs.read_file fs ~uid:0 "/alias"));
  let st = ok "stat2" (Fs.stat fs ~uid:0 "/alias") in
  Alcotest.(check int) "nlink back to 1" 1 st.Fs.st_nlink;
  (* Directories cannot be hard-linked. *)
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/d");
  expect_err "dir link" Errno.EPERM (Fs.link fs ~uid:0 ~target:"/d" "/dlink")

let symlinks () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/real");
  ok "write" (Fs.write_file fs ~uid:0 "/real/f" "via link");
  ok "symlink" (Fs.symlink fs ~uid:0 ~target:"/real/f" "/ln");
  Alcotest.(check string) "follow" "via link" (ok "read" (Fs.read_file fs ~uid:0 "/ln"));
  Alcotest.(check string) "readlink" "/real/f" (ok "readlink" (Fs.readlink fs ~uid:0 "/ln"));
  (* lstat sees the link, stat sees the target. *)
  let l = ok "lstat" (Fs.lstat fs ~uid:0 "/ln") in
  Alcotest.(check bool) "lstat kind" true (l.Fs.st_kind = Inode.Symlink);
  let s = ok "stat" (Fs.stat fs ~uid:0 "/ln") in
  Alcotest.(check bool) "stat kind" true (s.Fs.st_kind = Inode.Regular);
  (* Relative targets resolve against the link's directory. *)
  ok "rel" (Fs.symlink fs ~uid:0 ~target:"f" "/real/rel");
  Alcotest.(check string) "relative" "via link"
    (ok "read" (Fs.read_file fs ~uid:0 "/real/rel"));
  (* Dangling symlink: ENOENT on follow, EINVAL readlink on regular. *)
  ok "dangle" (Fs.symlink fs ~uid:0 ~target:"/missing" "/dangle");
  expect_err "dangling" Errno.ENOENT (Fs.read_file fs ~uid:0 "/dangle");
  expect_err "readlink regular" Errno.EINVAL (Fs.readlink fs ~uid:0 "/real/f")

let symlink_loops () =
  let fs = fresh () in
  ok "l1" (Fs.symlink fs ~uid:0 ~target:"/l2" "/l1");
  ok "l2" (Fs.symlink fs ~uid:0 ~target:"/l1" "/l2");
  expect_err "loop" Errno.ELOOP (Fs.read_file fs ~uid:0 "/l1")

let symlink_dotdot_target () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/a/b");
  ok "write" (Fs.write_file fs ~uid:0 "/a/sibling" "up");
  ok "ln" (Fs.symlink fs ~uid:0 ~target:"../sibling" "/a/b/up");
  Alcotest.(check string) "dotdot in target" "up"
    (ok "read" (Fs.read_file fs ~uid:0 "/a/b/up"))

let create_through_dangling_symlink () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/t");
  ok "ln" (Fs.symlink fs ~uid:0 ~target:"/t/real" "/t/alias");
  ok "create" (Fs.write_file fs ~uid:0 "/t/alias" "created");
  Alcotest.(check string) "landed at target" "created"
    (ok "read" (Fs.read_file fs ~uid:0 "/t/real"))

(* A create through a dangling link whose target has a ".." after a
   symlink lands where the kernel's own walk takes that "..": in the
   parent of the symlink's target, not beside the link.  [expand_link]
   names the same place, so the supervisor's check and the create agree;
   a target without ".." expands as its lexical join would. *)
let create_through_dangling_dotdot_symlink () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/a");
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/x/y");
  ok "sub" (Fs.symlink fs ~uid:0 ~target:"/x/y" "/a/sub");
  ok "ln" (Fs.symlink fs ~uid:0 ~target:"sub/../new" "/a/d");
  Alcotest.(check (pair string int)) "expanded physically" ("/x/new", 5)
    (Fs.expand_link fs ~link:"/a/d" "sub/../new");
  Alcotest.(check (pair string int)) "no dot-dot: the joined path"
    (Fs.canonical_parents fs "/a/sub/f")
    (Fs.expand_link fs ~link:"/a/l" "sub/f");
  ok "create" (Fs.write_file fs ~uid:0 "/a/d" "created");
  Alcotest.(check string) "landed in the real parent" "created"
    (ok "read" (Fs.read_file fs ~uid:0 "/x/new"));
  expect_err "nothing beside the link" Errno.ENOENT (Fs.stat fs ~uid:0 "/a/new");
  Alcotest.(check string) "read back through the link" "created"
    (ok "read" (Fs.read_file fs ~uid:0 "/a/d"))

(* O_CREAT|O_EXCL on a symlink must fail EEXIST even when the link
   dangles — following it would let a visitor-planted link redirect a
   "fresh" file to a target of the attacker's choosing. *)
let excl_create_on_dangling_symlink () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/t");
  ok "ln" (Fs.symlink fs ~uid:0 ~target:"/t/real" "/t/alias");
  let excl = { Fs.wronly_create with Fs.excl = true } in
  expect_err "excl on dangling link" Errno.EEXIST
    (Fs.open_file fs ~uid:0 ~flags:excl ~mode:0o644 "/t/alias");
  expect_err "nothing created at target" Errno.ENOENT
    (Fs.stat fs ~uid:0 "/t/real");
  (* Without excl, creation still follows the link (POSIX). *)
  ignore
    (ok "non-excl creates at target"
       (Fs.open_file fs ~uid:0 ~flags:Fs.wronly_create ~mode:0o644 "/t/alias"));
  ignore (ok "target exists now" (Fs.stat fs ~uid:0 "/t/real"));
  (* A resolvable symlink is EEXIST under excl too. *)
  expect_err "excl on live link" Errno.EEXIST
    (Fs.open_file fs ~uid:0 ~flags:excl ~mode:0o644 "/t/alias")

(* Without write permission on the parent, unlink/rmdir must say EACCES
   — not reveal via ENOENT/ENOTEMPTY whether the name exists or the
   directory has contents. *)
let errno_ordering_probe () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/locked");
  ok "chmod" (Fs.chmod fs ~uid:0 ~mode:0o755 "/locked");
  ok "write" (Fs.write_file fs ~uid:0 "/locked/present" "x");
  ok "sub" (Fs.mkdir_p fs ~uid:0 "/locked/full/inner");
  (* uid 1000 can list /locked but not write it. *)
  expect_err "unlink existing" Errno.EACCES
    (Fs.unlink fs ~uid:1000 "/locked/present");
  expect_err "unlink missing" Errno.EACCES
    (Fs.unlink fs ~uid:1000 "/locked/absent");
  expect_err "rmdir nonempty" Errno.EACCES
    (Fs.rmdir fs ~uid:1000 "/locked/full");
  expect_err "rmdir missing" Errno.EACCES
    (Fs.rmdir fs ~uid:1000 "/locked/absent");
  (* With write permission the real errnos come back. *)
  expect_err "root sees ENOENT" Errno.ENOENT
    (Fs.unlink fs ~uid:0 "/locked/absent");
  expect_err "root sees ENOTEMPTY" Errno.ENOTEMPTY
    (Fs.rmdir fs ~uid:0 "/locked/full")

(* Every resolver shares one expansion budget, [Fs.symlink_limit]: a
   chain one hop under it resolves; at the limit it is ELOOP — also on
   the O_CREAT dangling-link path, which used to cap at 8. *)
let shared_eloop_limit () =
  let fs = fresh () in
  let chain n =
    (* /c0 -> /c1 -> ... -> /c(n-1) -> /end *)
    ok "end" (Fs.write_file fs ~uid:0 "/end" "deep");
    for i = n - 1 downto 0 do
      let target = if i = n - 1 then "/end" else Printf.sprintf "/c%d" (i + 1) in
      ok "ln" (Fs.symlink fs ~uid:0 ~target (Printf.sprintf "/c%d" i))
    done
  in
  chain Fs.symlink_limit;
  Alcotest.(check string) "exactly the budget resolves" "deep"
    (ok "read" (Fs.read_file fs ~uid:0 "/c0"));
  ok "one more hop" (Fs.symlink fs ~uid:0 ~target:"/c0" "/over");
  expect_err "one past the budget" Errno.ELOOP (Fs.read_file fs ~uid:0 "/over");
  (* The O_CREAT path obeys the same budget: a 10-deep dangling chain
     (beyond the old hardcoded 8) still creates at the final target. *)
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/t");
  for i = 9 downto 0 do
    let target =
      if i = 9 then "/t/real" else Printf.sprintf "/t/d%d" (i + 1)
    in
    ok "ln" (Fs.symlink fs ~uid:0 ~target (Printf.sprintf "/t/d%d" i))
  done;
  ok "create through 10 hops" (Fs.write_file fs ~uid:0 "/t/d0" "made it");
  Alcotest.(check string) "landed" "made it"
    (ok "read" (Fs.read_file fs ~uid:0 "/t/real"))

let readdir_sorted () =
  let fs = fresh () in
  ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/d");
  List.iter (fun n -> ok "w" (Fs.write_file fs ~uid:0 ("/d/" ^ n) "x")) [ "c"; "a"; "b" ];
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    (ok "readdir" (Fs.readdir fs ~uid:0 "/d"))

let chmod_chown_rules () =
  let fs = fresh () in
  ok "write" (Fs.write_file fs ~uid:0 "/f" "x");
  ok "chown" (Fs.chown fs ~uid:0 ~owner:1000 "/f");
  (* The owner may chmod; others may not; only root may chown. *)
  ok "owner chmod" (Fs.chmod fs ~uid:1000 ~mode:0o600 "/f");
  expect_err "other chmod" Errno.EPERM (Fs.chmod fs ~uid:2000 ~mode:0o666 "/f");
  expect_err "owner chown" Errno.EPERM (Fs.chown fs ~uid:1000 ~owner:2000 "/f")

let mkdir_p_idempotent () =
  let fs = fresh () in
  ok "first" (Fs.mkdir_p fs ~uid:0 "/x/y/z");
  ok "again" (Fs.mkdir_p fs ~uid:0 "/x/y/z");
  Alcotest.(check bool) "exists" true (Fs.exists fs ~uid:0 "/x/y/z")

(* --- inode-level properties ------------------------------------------ *)

let inode_offset_io () =
  let ino = Inode.make_file ~ino:1 ~uid:0 ~mode:0o644 ~now:0L in
  ignore (Inode.write ino ~off:0 "hello world");
  Alcotest.(check string) "middle" "world"
    (Inode.read ino ~off:6 ~len:5);
  Alcotest.(check string) "past eof" "" (Inode.read ino ~off:100 ~len:5);
  (* Sparse write zero-fills the gap. *)
  ignore (Inode.write ino ~off:15 "end");
  Alcotest.(check int) "size" 18 (Inode.size ino);
  Alcotest.(check string) "gap zeros" "\000\000\000\000"
    (Inode.read ino ~off:11 ~len:4);
  Inode.truncate ino ~len:5;
  Alcotest.(check string) "truncated" "hello" (Inode.contents ino);
  Inode.truncate ino ~len:8;
  Alcotest.(check string) "zero extended" "hello\000\000\000" (Inode.contents ino)

let prop_inode_write_read =
  QCheck.Test.make ~name:"inode read-after-write" ~count:200
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 0 200))
       (QCheck.int_range 0 64))
    (fun (data, off) ->
      let ino = Inode.make_file ~ino:1 ~uid:0 ~mode:0o644 ~now:0L in
      ignore (Inode.write ino ~off data);
      String.equal (Inode.read ino ~off ~len:(String.length data)) data)

let prop_fs_write_read_roundtrip =
  QCheck.Test.make ~name:"fs whole-file roundtrip" ~count:100
    (QCheck.string_of_size (QCheck.Gen.int_range 0 500))
    (fun data ->
      let fs = fresh () in
      match Fs.write_file fs ~uid:0 "/f" data with
      | Error _ -> false
      | Ok () ->
        (match Fs.read_file fs ~uid:0 "/f" with
         | Ok read -> String.equal read data
         | Error _ -> false))

(* Which call bumps which counter.  [generation] moves on every
   namespace- or ACL-relevant change; [policy_generation] skips
   plain-file creates, unlinks and renames that neither touch the
   watched ACL name nor replace a directory or symlink; the ACL
   generation (of /d or /d/sub, the two directories a row can touch)
   moves only when what an ACL file reads as can change. *)
let generation_table () =
  let fixture () =
    let fs = fresh () in
    Fs.watch_basename fs ".__acl";
    ok "mkdir" (Fs.mkdir_p fs ~uid:0 "/d/sub");
    ok "mkdir e" (Fs.mkdir_p fs ~uid:0 "/e");
    ok "f" (Fs.write_file fs ~uid:0 "/d/f" "x");
    ok "g" (Fs.write_file fs ~uid:0 "/d/g" "y");
    ok "ln" (Fs.symlink fs ~uid:0 ~target:"/d/f" "/d/ln");
    ok "acl" (Fs.write_file fs ~uid:0 "/d/.__acl" "unix:* rl");
    ok "acl ln" (Fs.symlink fs ~uid:0 ~target:".__acl" "/d/acl_ln");
    ok "far acl ln" (Fs.symlink fs ~uid:0 ~target:"../d/.__acl" "/e/acl_ln");
    ok "deep" (Fs.symlink fs ~uid:0 ~target:"/d/sub" "/e/deep");
    (* ".." after a symlink pops to the link target's real parent, /d. *)
    ok "via" (Fs.symlink fs ~uid:0 ~target:"deep/../.__acl" "/e/via");
    fs
  in
  let unit r = Result.map ignore r in
  let in_place path fs =
    let flags = { Fs.rdonly with rd = false; wr = true } in
    Result.map
      (fun inode -> ignore (Inode.write inode ~off:0 "unix:* r"))
      (Fs.open_file fs ~uid:0 ~flags ~mode:0 path)
  in
  (* call, its action on the fixture,
     (generation, policy_generation, ACL generation) *)
  let rows =
    [
      ("create a file", (fun fs -> Fs.write_file fs ~uid:0 "/d/new" "z"), (true, false, false));
      ("write an existing file", (fun fs -> Fs.write_file fs ~uid:0 "/d/f" "z"), (false, false, false));
      ("write a file in place", in_place "/d/f", (false, false, false));
      ("write through a symlink to a file", (fun fs -> Fs.write_file fs ~uid:0 "/d/ln" "z"), (false, false, false));
      ("read a file", (fun fs -> unit (Fs.read_file fs ~uid:0 "/d/f")), (false, false, false));
      ("unlink a file", (fun fs -> Fs.unlink fs ~uid:0 "/d/f"), (true, false, false));
      ("rename a file", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/f" ~dst:"/d/h"), (true, false, false));
      ("rename a file across dirs", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/f" ~dst:"/d/sub/f"), (true, false, false));
      ("rename a file over a file", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/f" ~dst:"/d/g"), (true, false, false));
      ("rename a file over a symlink", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/f" ~dst:"/d/ln"), (true, true, false));
      ("rename a symlink", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/ln" ~dst:"/d/ln2"), (true, true, false));
      ("rename a directory", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/sub" ~dst:"/d/sub2"), (true, true, false));
      ("rename a file into .__acl", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/f" ~dst:"/d/sub/.__acl"), (true, true, true));
      ("rename .__acl out", (fun fs -> Fs.rename fs ~uid:0 ~src:"/d/.__acl" ~dst:"/d/old"), (true, true, true));
      ("create .__acl", (fun fs -> Fs.write_file fs ~uid:0 "/d/sub/.__acl" "unix:* r"), (true, true, true));
      ("write .__acl", (fun fs -> Fs.write_file fs ~uid:0 "/d/.__acl" "unix:* r"), (true, true, true));
      ("write .__acl in place", in_place "/d/.__acl", (true, true, true));
      ("write .__acl through a symlink beside it", (fun fs -> Fs.write_file fs ~uid:0 "/d/acl_ln" "unix:* r"), (true, true, true));
      ("write .__acl through a symlink elsewhere", (fun fs -> Fs.write_file fs ~uid:0 "/e/acl_ln" "unix:* r"), (true, true, true));
      ("write .__acl through a link whose target climbs out of another", (fun fs -> Fs.write_file fs ~uid:0 "/e/via" "unix:* r"), (true, true, true));
      ("unlink .__acl", (fun fs -> Fs.unlink fs ~uid:0 "/d/.__acl"), (true, true, true));
      ("mkdir", (fun fs -> unit (Fs.mkdir fs ~uid:0 ~mode:0o755 "/d/new")), (true, true, false));
      ("mkdir .__acl", (fun fs -> unit (Fs.mkdir fs ~uid:0 ~mode:0o755 "/d/sub/.__acl")), (true, true, true));
      ("rmdir", (fun fs -> Fs.rmdir fs ~uid:0 "/d/sub"), (true, true, false));
      ("symlink", (fun fs -> Fs.symlink fs ~uid:0 ~target:"/d/g" "/d/ln2"), (true, true, false));
      ("unlink a symlink", (fun fs -> Fs.unlink fs ~uid:0 "/d/ln"), (true, true, false));
      ("hard link", (fun fs -> Fs.link fs ~uid:0 ~target:"/d/f" "/d/f2"), (true, true, false));
      ("chmod a file", (fun fs -> Fs.chmod fs ~uid:0 ~mode:0o600 "/d/f"), (true, true, true));
      ("chmod .__acl", (fun fs -> Fs.chmod fs ~uid:0 ~mode:0o600 "/d/.__acl"), (true, true, true));
      ("chmod a directory", (fun fs -> Fs.chmod fs ~uid:0 ~mode:0o700 "/d/sub"), (true, true, true));
      ("chown", (fun fs -> Fs.chown fs ~uid:0 ~owner:7 "/d/f"), (true, true, true));
    ]
  in
  List.iter
    (fun (name, call, (gen, policy, acl)) ->
      let fs = fixture () in
      let dir path = ok "dir" (Fs.resolve fs ~uid:0 path) in
      let d = dir "/d" and sub = dir "/d/sub" in
      let acl_gens () = (Inode.acl_gen d, Inode.acl_gen sub) in
      let g0 = Fs.generation fs and p0 = Fs.policy_generation fs and a0 = acl_gens () in
      ok name (call fs);
      Alcotest.(check bool) (name ^ ": generation") gen (Fs.generation fs <> g0);
      Alcotest.(check bool)
        (name ^ ": policy generation")
        policy
        (Fs.policy_generation fs <> p0);
      Alcotest.(check bool) (name ^ ": ACL generation") acl (acl_gens () <> a0))
    rows

(* The watched (ACL) name never shares its inode: a write through an
   alias would change the ACL without any bump. *)
let watched_name_never_aliases () =
  let fs = fresh () in
  Fs.watch_basename fs ".__acl";
  ok "mkdir" (Fs.mkdir fs ~uid:0 ~mode:0o755 "/d" |> Result.map ignore);
  ok "acl" (Fs.write_file fs ~uid:0 "/d/.__acl" "unix:* rl");
  ok "f" (Fs.write_file fs ~uid:0 "/d/f" "x");
  expect_err "link from the acl" Errno.EPERM
    (Fs.link fs ~uid:0 ~target:"/d/.__acl" "/d/alias");
  expect_err "link onto the acl name" Errno.EPERM
    (Fs.link fs ~uid:0 ~target:"/d/f" "/e/.__acl");
  ok "plain link" (Fs.link fs ~uid:0 ~target:"/d/f" "/d/g");
  expect_err "rename a linked file onto the acl" Errno.EPERM
    (Fs.rename fs ~uid:0 ~src:"/d/f" ~dst:"/d/.__acl");
  ok "unlink alias" (Fs.unlink fs ~uid:0 "/d/g");
  expect_err "symlink at the acl name" Errno.EPERM
    (Fs.symlink fs ~uid:0 ~target:"/d/f" "/.__acl");
  ok "plain symlink" (Fs.symlink fs ~uid:0 ~target:"f" "/d/ln");
  expect_err "rename a symlink onto the acl" Errno.EPERM
    (Fs.rename fs ~uid:0 ~src:"/d/ln" ~dst:"/d/.__acl");
  ok "rename a lone file onto the acl"
    (Fs.rename fs ~uid:0 ~src:"/d/f" ~dst:"/d/.__acl");
  Alcotest.(check string) "acl replaced" "x"
    (ok "read" (Fs.read_file fs ~uid:0 "/d/.__acl"))

let suite =
  [
    Alcotest.test_case "perm owner/other" `Quick perm_owner_other;
    Alcotest.test_case "perm render" `Quick perm_render;
    Alcotest.test_case "errno roundtrip" `Quick errno_roundtrip;
    Alcotest.test_case "create/write/read" `Quick create_write_read;
    Alcotest.test_case "open flags" `Quick open_flags_semantics;
    Alcotest.test_case "missing paths" `Quick missing_paths;
    Alcotest.test_case "permission enforcement" `Quick permission_enforcement;
    Alcotest.test_case "unlink/rmdir" `Quick unlink_and_rmdir;
    Alcotest.test_case "rename" `Quick rename_semantics;
    Alcotest.test_case "hard links" `Quick hard_links;
    Alcotest.test_case "symlinks" `Quick symlinks;
    Alcotest.test_case "symlink loops" `Quick symlink_loops;
    Alcotest.test_case "symlink ..-target" `Quick symlink_dotdot_target;
    Alcotest.test_case "create through dangling link" `Quick create_through_dangling_symlink;
    Alcotest.test_case "create through dangling dot-dot link" `Quick
      create_through_dangling_dotdot_symlink;
    Alcotest.test_case "excl create on dangling link" `Quick excl_create_on_dangling_symlink;
    Alcotest.test_case "EACCES before existence probe" `Quick errno_ordering_probe;
    Alcotest.test_case "shared ELOOP limit" `Quick shared_eloop_limit;
    Alcotest.test_case "readdir sorted" `Quick readdir_sorted;
    Alcotest.test_case "chmod/chown rules" `Quick chmod_chown_rules;
    Alcotest.test_case "mkdir_p idempotent" `Quick mkdir_p_idempotent;
    Alcotest.test_case "inode offset io" `Quick inode_offset_io;
    Alcotest.test_case "which calls bump which generation" `Quick generation_table;
    Alcotest.test_case "watched name never aliases" `Quick watched_name_never_aliases;
    QCheck_alcotest.to_alcotest prop_inode_write_read;
    QCheck_alcotest.to_alcotest prop_fs_write_read_roundtrip;
  ]
