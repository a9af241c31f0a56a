(* Adversarial property test: a boxed program running a *random*
   sequence of system calls can never (a) modify any object outside the
   areas it was granted, nor (b) observe the contents of any protected
   file.  This is the containment claim of the paper tested not against
   hand-picked attacks (test_security.ml) but against generated ones,
   under both engines that box a process: the tracing supervisor ([Box])
   and the in-kernel hook ([Kbox]), with the same programs. *)

module Kernel = Idbox_kernel.Kernel
module Libc = Idbox_kernel.Libc
module Box = Idbox.Box
module Kbox = Idbox.Kbox
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno

(* ------------------------------------------------------------------ *)
(* Attack-program generator.                                            *)
(* ------------------------------------------------------------------ *)

type op =
  | F_write of string * string
  | F_read of string
  | F_mkdir of string
  | F_unlink of string
  | F_rmdir of string
  | F_rename of string * string
  | F_chmod of string * int
  | F_symlink of string * string  (* target, path *)
  | F_link of string * string  (* target, path *)
  | F_setacl of string * string
  | F_truncate of string
  | F_chdir of string
  | F_readdir of string
  | F_spawn_helper
      (** Stage a helper program in the attacker's home and run it: the
          child is traced like its parent, so its own attack attempt
          must fail identically. *)

(* Paths mix protected objects, system areas, the visitor's own home
   (via $HOME), relative escapes, symlink-laundering components, the
   ACL file of /shared, where the attacker holds w but not a (as a name,
   through a link beside it, and as a relative link target), and link
   targets whose ".." follows a symlink ("sub/../..."), including the
   one the fixture already planted at /shared/evil. *)
let path_pool =
  [
    "/shared/.__acl";
    "/shared/alias";
    "/shared/evil";
    ".__acl";
    "sub/../data";
    "sub/../secret.txt";
    "/home/victim/deep";
    "/protected/secret.txt";
    "/protected";
    "/etc/passwd";
    "/etc";
    "/bin/sh";
    "/home/victim/data";
    "/home/victim";
    "~/own.txt";
    "~/sub";
    "~/sub/deep.txt";
    "../../../protected/secret.txt";
    "../protected";
    "~/alias";
    "/tmp/scratchpad";
  ]

let op_gen =
  let open QCheck.Gen in
  let path = oneofl path_pool in
  let data = oneofl [ "x"; "payload"; String.make 2000 'A' ] in
  frequency
    [
      (3, map2 (fun p d -> F_write (p, d)) path data);
      (3, map (fun p -> F_read p) path);
      (2, map (fun p -> F_mkdir p) path);
      (2, map (fun p -> F_unlink p) path);
      (1, map (fun p -> F_rmdir p) path);
      (2, map2 (fun a b -> F_rename (a, b)) path path);
      (1, map (fun p -> F_chmod (p, 0o777)) path);
      (2, map2 (fun t p -> F_symlink (t, p)) path path);
      (2, map2 (fun t p -> F_link (t, p)) path path);
      (1, map (fun p -> F_setacl (p, "JoeHacker rwlxad")) path);
      (1, map (fun p -> F_truncate p) path);
      (1, map (fun p -> F_chdir p) path);
      (1, map (fun p -> F_readdir p) path);
      (1, return F_spawn_helper);
    ]

let program_gen = QCheck.Gen.(list_size (int_range 5 40) op_gen)

let op_to_string = function
  | F_write (p, d) -> Printf.sprintf "write %s (%d bytes)" p (String.length d)
  | F_read p -> "read " ^ p
  | F_mkdir p -> "mkdir " ^ p
  | F_unlink p -> "unlink " ^ p
  | F_rmdir p -> "rmdir " ^ p
  | F_rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | F_chmod (p, m) -> Printf.sprintf "chmod %o %s" m p
  | F_symlink (t, p) -> Printf.sprintf "symlink %s %s" t p
  | F_link (t, p) -> Printf.sprintf "link %s %s" t p
  | F_setacl (p, e) -> Printf.sprintf "setacl %s %S" p e
  | F_truncate p -> "truncate " ^ p
  | F_chdir p -> "chdir " ^ p
  | F_readdir p -> "readdir " ^ p
  | F_spawn_helper -> "spawn helper"

(* A failing program shrinks to a shortest failing subsequence. *)
let program =
  QCheck.make program_gen ~shrink:QCheck.Shrink.list
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))

(* ------------------------------------------------------------------ *)
(* Filesystem snapshots.                                                *)
(* ------------------------------------------------------------------ *)

(* Objects under these prefixes legitimately change during a run. *)
(* /tmp is world-writable: any local user may create there, so the
   box makes no promise about it (nobody-fallback Unix semantics).
   Everything the attacker does under /tmp is legitimate. *)
let volatile base path =
  Path.is_prefix ~prefix:base path
  || (Path.is_prefix ~prefix:"/tmp" path && not (String.equal path "/tmp"))
  || Path.is_prefix ~prefix:"/shared" path
     && not (String.equal path "/shared" || String.equal path "/shared/.__acl")

let rec snapshot fs ~base acc path =
  match Fs.lstat fs ~uid:0 path with
  | Error _ -> acc
  | Ok st ->
    let acc =
      if volatile base path then acc
      else
        let content =
          match st.Fs.st_kind with
          | Inode.Regular ->
            (match Fs.read_file fs ~uid:0 path with
             | Ok text -> Digest.string text
             | Error _ -> "?")
          | Inode.Symlink ->
            (match Fs.readlink fs ~uid:0 path with Ok t -> t | Error _ -> "?")
          | Inode.Directory -> "dir"
          | Inode.Fifo -> "fifo"
        in
        (path, (st.Fs.st_kind, st.Fs.st_mode, st.Fs.st_uid, content)) :: acc
    in
    if st.Fs.st_kind = Inode.Directory then
      match Fs.readdir fs ~uid:0 path with
      | Error _ -> acc
      | Ok names ->
        List.fold_left
          (fun acc name ->
            snapshot fs ~base acc
              (if String.equal path "/" then "/" ^ name else path ^ "/" ^ name))
          acc names
    else acc

let take_snapshot fs ~base =
  snapshot fs ~base [] "/" |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The property.                                                        *)
(* ------------------------------------------------------------------ *)

let secret_content = "TOP-SECRET-DO-NOT-LEAK"

let helper_program_name = "fuzz-attack-helper"

let attacker = Principal.of_string "JoeHacker"

(* How an engine boxes the attacker on a prepared kernel: it returns the
   directory the attacker calls home, the prefix under which anything
   may change (the box's own state), a way to grant ACLs, and a way to
   start a program. *)
type engine = {
  e_name : string;
  e_box :
    Kernel.t ->
    supervisor_uid:int ->
    string * string * (dir:string -> Idbox_acl.Acl.t -> unit)
    * (main:Idbox_kernel.Program.main -> int);
}

let fail_errno ctx = function Ok v -> v | Error e -> failwith (ctx ^ Errno.message e)

let box_engine =
  {
    e_name = "boxed";
    e_box =
      (fun k ~supervisor_uid ->
        let box = fail_errno "box" (Box.create k ~supervisor_uid ~identity:attacker ()) in
        ( Box.home box,
          Box.base box,
          (fun ~dir acl -> fail_errno "acl" (Box.set_acl box ~dir acl)),
          fun ~main -> Box.spawn_main box ~main ~args:[ "attack" ] ));
  }

(* The in-kernel box has no home of its own: the fixture gives it a
   directory the attacker owns, which is also everything it may
   change. *)
let kbox_engine =
  {
    e_name = "in-kernel";
    e_box =
      (fun k ~supervisor_uid ->
        let kbox = Kbox.install k ~supervisor_uid () in
        let home = "/srv/joe" in
        fail_errno "home" (Fs.mkdir_p (Kernel.fs k) ~uid:0 home);
        fail_errno "home" (Fs.chown (Kernel.fs k) ~uid:0 ~owner:supervisor_uid home);
        let set_acl ~dir acl =
          fail_errno "acl" (Idbox.Enforce.write_acl (Kbox.enforcer kbox) ~dir acl)
        in
        set_acl ~dir:home (Idbox_acl.Acl.for_owner attacker);
        ( home,
          home,
          set_acl,
          fun ~main -> Kbox.spawn_main kbox ~identity:attacker ~main ~args:[ "attack" ] ));
  }

let run_attack engine ops =
  let k = Kernel.create () in
  (* The helper a generated program may stage and spawn: it attacks the
     protected area from a child process. *)
  Idbox_kernel.Program.register helper_program_name (fun _ ->
      ignore (Libc.write_file "/protected/from_child" ~contents:"boo");
      ignore (Libc.unlink "/protected/secret.txt");
      match Libc.read_file "/protected/secret.txt" with
      | Ok text when String.equal text secret_content -> 77
      | Ok _ | Error _ -> 0);
  let victim =
    match Kernel.add_user k "victim" with Ok e -> e | Error m -> failwith m
  in
  let fs = Kernel.fs k in
  let seed ctx = function Ok _ -> () | Error e -> failwith (ctx ^ Errno.message e) in
  seed "p" (Fs.mkdir_p fs ~uid:0 "/protected");
  seed "p" (Fs.chmod fs ~uid:0 ~mode:0o700 "/protected");
  seed "p" (Fs.write_file fs ~uid:0 ~mode:0o600 "/protected/secret.txt" secret_content);
  seed "v"
    (Fs.write_file fs ~uid:victim.Idbox_kernel.Account.uid ~mode:0o600
       "/home/victim/data" "victim bytes");
  seed "v"
    (Fs.mkdir_p fs ~uid:victim.Idbox_kernel.Account.uid "/home/victim/deep");
  seed "s" (Fs.mkdir_p fs ~uid:0 ~mode:0o777 "/tmp/scratchpad");
  seed "sh" (Fs.mkdir_p fs ~uid:0 "/shared");
  seed "sh" (Fs.chown fs ~uid:0 ~owner:victim.Idbox_kernel.Account.uid "/shared");
  (* Links someone planted in the shared area: one into the victim's
     home, and one whose ".." comes after it, so /shared/evil names
     /home/victim/data — never /shared/data. *)
  List.iter
    (fun (target, link) ->
      seed "ln"
        (Fs.symlink fs ~uid:victim.Idbox_kernel.Account.uid ~target link))
    [ ("/home/victim/deep", "/shared/sub"); ("sub/../data", "/shared/evil") ];
  let home, base, set_acl, start =
    engine.e_box k ~supervisor_uid:victim.Idbox_kernel.Account.uid
  in
  set_acl ~dir:"/shared"
    (Idbox_acl.Acl.of_entries
       [ Idbox_acl.Entry.make ~pattern:"JoeHacker"
           (Idbox_acl.Rights.of_string_exn "rwlxd") ]);
  let before = take_snapshot fs ~base in
  let leaked = ref false in
  let expand p =
    if String.length p >= 1 && p.[0] = '~' then
      home ^ String.sub p 1 (String.length p - 1)
    else p
  in
  let main _args =
    let e = expand in
    List.iter
      (fun op ->
        match op with
        | F_write (p, d) -> ignore (Libc.write_file (e p) ~contents:d)
        | F_read p ->
          (match Libc.read_file (e p) with
           | Ok text -> if String.equal text secret_content then leaked := true
           | Error _ -> ())
        | F_mkdir p -> ignore (Libc.mkdir (e p))
        | F_unlink p -> ignore (Libc.unlink (e p))
        | F_rmdir p -> ignore (Libc.rmdir (e p))
        | F_rename (a, b) -> ignore (Libc.rename ~src:(e a) ~dst:(e b))
        | F_chmod (p, mode) -> ignore (Libc.chmod ~mode (e p))
        | F_symlink (t, p) -> ignore (Libc.symlink ~target:(e t) (e p))
        | F_link (t, p) -> ignore (Libc.link ~target:(e t) (e p))
        | F_setacl (p, entry) -> ignore (Libc.setacl ~path:(e p) ~entry)
        | F_truncate p -> ignore (Libc.truncate ~len:0 (e p))
        | F_chdir p -> ignore (Libc.chdir (e p))
        | F_readdir p ->
          (match Libc.readdir (e p) with
           | Ok names -> if List.mem "secret.txt" names then () else ()
           | Error _ -> ())
        | F_spawn_helper ->
          let exe = home ^ "/helper.exe" in
          ignore
            (Libc.write_file exe
               ~contents:(Idbox_kernel.Program.marker helper_program_name));
          ignore (Libc.chmod ~mode:0o755 exe);
          (match Libc.spawn exe ~args:[ "helper" ] with
           | Ok pid ->
             (match Libc.waitpid pid with
              | Ok (_, 77) -> leaked := true
              | Ok _ | Error _ -> ())
           | Error _ -> ()))
      ops;
    0
  in
  let pid = start ~main in
  Kernel.run k;
  (match Kernel.exit_code k pid with
   | Some _ -> ()
   | None -> failwith "attacker stuck");
  let after = take_snapshot fs ~base in
  (before = after, !leaked)

let prop_no_external_mutation engine =
  QCheck.Test.make
    ~name:(Printf.sprintf "random %s attacks mutate nothing outside the box" engine.e_name)
    ~count:60 program (fun ops ->
      let unchanged, _ = run_attack engine ops in
      unchanged)

let prop_no_secret_leak engine =
  QCheck.Test.make
    ~name:(Printf.sprintf "random %s attacks never read the secret" engine.e_name)
    ~count:60 program (fun ops ->
      let _, leaked = run_attack engine ops in
      not leaked)

(* The programs come from a fixed seed, so a run is reproducible; CI's
   seed loop reruns the suite under extra seeds via the knob the chaos
   suites honour.  Each engine faces the same programs. *)
let seed =
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 2005)
  | None -> 2005

let suite =
  List.map
    (fun test -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test)
    (List.concat_map
       (fun engine -> [ prop_no_external_mutation engine; prop_no_secret_leak engine ])
       [ box_engine; kbox_engine ])
