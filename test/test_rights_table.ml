(* One rights table, three engines: the tracing box ([Box]), the
   in-kernel hook ([Kbox]) and the Chirp server must give the same
   verdict on every call and leave the same tree behind.

   Every run starts from the same fixture, built afresh on its own
   kernel.  Fred (globus:/O=UnivNowhere/CN=Fred) holds rwlxda in
   /srv/area, only l with the reserve right v(rwlax) in /srv/res, and
   nothing in /srv/priv; /srv/area/lnk is a link to /srv/priv/f.  The
   server exports /srv, so its wire path "/area/f" is /srv/area/f.

   The table-driven part runs every (operation, fixture path) pair; the
   seeded part runs generated sequences (IDBOX_CHAOS_SEED picks the
   seed) and shrinks a disagreement to a shortest failing sequence.
   The server has no readlink, symlink, link, chmod, truncate or chdir:
   those are compared between the two boxes only. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Clock = Idbox_kernel.Clock
module Network = Idbox_net.Network
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Box = Idbox.Box
module Kbox = Idbox.Kbox
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Subject = Idbox_identity.Subject
module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"
let jane_entry = "globus:/O=UnivNowhere/CN=Jane rl"

type op =
  | Mkdir of string
  | Rmdir of string
  | Unlink of string
  | Write of string
  | Read of string
  | Stat of string
  | Readdir of string
  | Getacl of string
  | Setacl of string
  | Rename of string * string
  | Readlink of string
  | Symlink of string * string  (* target, path *)
  | Link of string * string  (* target, path *)
  | Chmod of string
  | Truncate of string
  | Chdir of string

let op_to_string = function
  | Mkdir p -> "mkdir " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Unlink p -> "unlink " ^ p
  | Write p -> "write " ^ p
  | Read p -> "read " ^ p
  | Stat p -> "stat " ^ p
  | Readdir p -> "readdir " ^ p
  | Getacl p -> "getacl " ^ p
  | Setacl p -> "setacl " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | Readlink p -> "readlink " ^ p
  | Symlink (t, p) -> Printf.sprintf "symlink %s %s" t p
  | Link (t, p) -> Printf.sprintf "link %s %s" t p
  | Chmod p -> "chmod " ^ p
  | Truncate p -> "truncate " ^ p
  | Chdir p -> "chdir " ^ p

let show ops = String.concat "; " (List.map op_to_string ops)

let served_by_chirp = function
  | Mkdir _ | Rmdir _ | Unlink _ | Write _ | Read _ | Stat _ | Readdir _
  | Getacl _ | Setacl _ | Rename _ ->
    true
  | Readlink _ | Symlink _ | Link _ | Chmod _ | Truncate _ | Chdir _ -> false

(* ------------------------------------------------------------------ *)
(* The fixture.                                                         *)

let okf ctx = function Ok v -> v | Error e -> failwith (ctx ^ ": " ^ Errno.message e)

(* A kernel carrying the fixture tree; returns it and the supervising
   account's uid. *)
let fixture () =
  let clock = Clock.create () in
  let k = Kernel.create ~clock () in
  let op =
    match Account.add (Kernel.accounts k) "operator" with
    | Ok e -> e.Account.uid
    | Error m -> failwith m
  in
  Kernel.refresh_passwd k;
  let fs = Kernel.fs k in
  let dir path =
    okf path (Fs.mkdir_p fs ~uid:0 path);
    okf path (Fs.chown fs ~uid:0 ~owner:op path)
  in
  let acl dir entries =
    okf dir
      (Fs.write_file fs ~uid:op ~mode:0o600 (Path.join dir Acl.filename)
         (Acl.to_string (Acl.of_entries entries)))
  in
  let file path data = okf path (Fs.write_file fs ~uid:op ~mode:0o644 path data) in
  List.iter dir [ "/srv"; "/srv/area"; "/srv/area/empty"; "/srv/res"; "/srv/priv" ];
  let fred_holds ?reserve r =
    Entry.make ~pattern:(Principal.to_string fred) ?reserve (Rights.of_string_exn r)
  in
  acl "/srv/area" [ fred_holds "rwlxda" ];
  acl "/srv/area/empty" [ fred_holds "rwlxda" ];
  acl "/srv/res" [ fred_holds "l" ~reserve:(Rights.of_string_exn "rwlax") ];
  acl "/srv/priv" [ Entry.make ~pattern:"unix:operator" Rights.full ];
  file "/srv/area/f" "area data";
  file "/srv/res/g" "res data";
  file "/srv/priv/f" "private data";
  okf "lnk" (Fs.symlink fs ~uid:op ~target:"/srv/priv/f" "/srv/area/lnk");
  (k, clock, op)

(* Everything under /srv, ACL files included, as (path, what) pairs:
   kind and contents, not owners, modes or times. *)
let tree k =
  let fs = Kernel.fs k in
  let rec walk acc path =
    match Fs.lstat fs ~uid:0 path with
    | Error _ -> acc
    | Ok st ->
      (match st.Fs.st_kind with
       | Inode.Directory ->
         let names = okf path (Fs.readdir fs ~uid:0 path) in
         List.fold_left
           (fun acc name -> walk acc (Path.join path name))
           ((path, "dir") :: acc)
           (List.sort String.compare names)
       | Inode.Regular -> (path, "file " ^ okf path (Fs.read_file fs ~uid:0 path)) :: acc
       | Inode.Symlink -> (path, "link " ^ okf path (Fs.readlink fs ~uid:0 path)) :: acc
       | Inode.Fifo -> (path, "fifo") :: acc)
  in
  List.rev (walk [] "/srv")

(* ------------------------------------------------------------------ *)
(* The engines.                                                         *)

let verdict show_ok = function
  | Ok v -> "ok" ^ show_ok v
  | Error e -> Errno.to_string e

let unit_v r = verdict (fun () -> "") r
let text_v r = verdict (fun s -> ":" ^ s) r
let names_v r = verdict (fun names -> ":" ^ String.concat "," (List.sort String.compare names)) r

let kind_name = function
  | Inode.Regular | Inode.Fifo -> "file"
  | Inode.Directory -> "dir"
  | Inode.Symlink -> "link"

(* One operation through the C library, as a boxed process makes it. *)
let libc_op = function
  | Mkdir p -> unit_v (Libc.mkdir p)
  | Rmdir p -> unit_v (Libc.rmdir p)
  | Unlink p -> unit_v (Libc.unlink p)
  | Write p -> unit_v (Libc.write_file p ~contents:"written")
  | Read p -> text_v (Libc.read_file p)
  | Stat p ->
    verdict (fun st -> Printf.sprintf ":%s %d" (kind_name st.Fs.st_kind) st.Fs.st_size)
      (Libc.stat p)
  | Readdir p -> names_v (Libc.readdir p)
  | Getacl p -> text_v (Libc.getacl p)
  | Setacl p -> unit_v (Libc.setacl ~path:p ~entry:jane_entry)
  | Rename (a, b) -> unit_v (Libc.rename ~src:a ~dst:b)
  | Readlink p -> text_v (Libc.readlink p)
  | Symlink (t, p) -> unit_v (Libc.symlink ~target:t p)
  | Link (t, p) -> unit_v (Libc.link ~target:t p)
  | Chmod p -> unit_v (Libc.chmod ~mode:0o600 p)
  | Truncate p -> unit_v (Libc.truncate ~len:1 p)
  | Chdir p -> unit_v (Libc.chdir p)

(* Run [ops] in one process and collect its verdicts. *)
let in_process k start ops =
  let verdicts = ref [] in
  let pid =
    start (fun _ ->
        List.iter (fun op -> verdicts := libc_op op :: !verdicts) ops;
        0)
  in
  Kernel.run k;
  (match Kernel.exit_code k pid with
   | Some 0 -> ()
   | Some _ | None -> failwith "boxed run did not finish");
  (List.rev !verdicts, tree k)

let run_box ops =
  let k, _, op = fixture () in
  let box = okf "box" (Box.create k ~supervisor_uid:op ~identity:fred ()) in
  in_process k (fun main -> Box.spawn_main box ~main ~args:[ "fred" ]) ops

let run_kbox ops =
  let k, _, op = fixture () in
  let kbox = Kbox.install k ~supervisor_uid:op () in
  in_process k (fun main -> Kbox.spawn_main kbox ~identity:fred ~main ~args:[ "fred" ]) ops

(* The server exports /srv: strip it to get the wire path. *)
let wire p =
  match Path.strip_prefix ~prefix:"/srv" p with
  | Some rest -> if String.equal rest "" then "/" else rest
  | None -> p

let chirp_op c = function
  | Mkdir p -> unit_v (Client.mkdir c (wire p))
  | Rmdir p -> unit_v (Client.rmdir c (wire p))
  | Unlink p -> unit_v (Client.unlink c (wire p))
  | Write p -> unit_v (Client.put c ~path:(wire p) ~data:"written")
  | Read p -> text_v (Client.get c (wire p))
  | Stat p ->
    verdict
      (fun st ->
        Printf.sprintf ":%s %d" st.Idbox_chirp.Protocol.ws_kind
          st.Idbox_chirp.Protocol.ws_size)
      (Client.stat c (wire p))
  | Readdir p -> names_v (Client.readdir c (wire p))
  | Getacl p -> text_v (Client.getacl c (wire p))
  | Setacl p -> unit_v (Client.setacl c ~path:(wire p) ~entry:jane_entry)
  | Rename (a, b) -> unit_v (Client.rename c ~src:(wire a) ~dst:(wire b))
  | Readlink _ | Symlink _ | Link _ | Chmod _ | Truncate _ | Chdir _ ->
    invalid_arg "not a Chirp operation"

let run_chirp ops =
  let k, clock, op = fixture () in
  let net = Network.create ~clock () in
  let ca = Ca.create ~name:"UnivNowhere CA" in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let addr = "srv.nowhere.edu:9094" in
  ignore
    (okf "server"
       (Server.create ~kernel:k ~net ~addr ~owner_uid:op ~export:"/srv" ~acceptor ()));
  let cert = Ca.issue ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  let c =
    match Client.connect net ~addr ~credentials:[ Credential.Gsi cert ] with
    | Ok c -> c
    | Error m -> failwith m
  in
  let verdicts = List.map (chirp_op c) ops in
  (verdicts, tree k)

(* ------------------------------------------------------------------ *)
(* Agreement.                                                           *)

let pp_tree t = String.concat "\n  " (List.map (fun (p, w) -> p ^ " " ^ w) t)

(* [None] when the engines agree on [ops]; otherwise what differs. *)
let disagreement ops =
  let box = run_box ops in
  let against name (verdicts, t) (want_verdicts, want_t) =
    if verdicts <> want_verdicts then
      Some
        (Printf.sprintf "%s: box %s, %s %s" (show ops)
           (String.concat "," want_verdicts) name (String.concat "," verdicts))
    else if t <> want_t then
      Some
        (Printf.sprintf "%s: trees differ\nbox:\n  %s\n%s:\n  %s" (show ops)
           (pp_tree want_t) name (pp_tree t))
    else None
  in
  match against "kbox" (run_kbox ops) box with
  | Some _ as d -> d
  | None ->
    if List.for_all served_by_chirp ops then against "chirp" (run_chirp ops) box
    else None

let agree ops =
  match disagreement ops with None -> () | Some d -> Alcotest.fail d

(* ------------------------------------------------------------------ *)
(* Table-driven: every (operation, fixture path) pair.                  *)

let paths =
  [
    "/srv/area";
    "/srv/area/f";
    "/srv/area/new";
    "/srv/area/lnk";
    "/srv/area/empty";
    "/srv/area/.__acl";
    "/srv/res";
    "/srv/res/fred";
    "/srv/res/g";
    "/srv/priv";
    "/srv/priv/f";
    "/srv/priv/new";
  ]

let pairs =
  [
    ("/srv/area/f", "/srv/area/g");
    ("/srv/area/lnk", "/srv/area/lnk2");
    ("/srv/area/f", "/srv/priv/g");
    ("/srv/priv/f", "/srv/area/g");
    ("/srv/area/f", "/srv/area/.__acl");
    ("/srv/area/empty", "/srv/res/fred");
  ]

let one_path_ops =
  [
    (fun p -> Mkdir p); (fun p -> Rmdir p); (fun p -> Unlink p); (fun p -> Write p);
    (fun p -> Read p); (fun p -> Stat p); (fun p -> Readdir p); (fun p -> Getacl p);
    (fun p -> Setacl p); (fun p -> Readlink p); (fun p -> Chmod p);
    (fun p -> Truncate p); (fun p -> Chdir p);
  ]

let two_path_ops =
  [
    (fun (a, b) -> Rename (a, b)); (fun (a, b) -> Symlink (a, b));
    (fun (a, b) -> Link (a, b));
  ]

let every_pair_agrees () =
  List.iter (fun mk -> List.iter (fun p -> agree [ mk p ]) paths) one_path_ops;
  List.iter (fun mk -> List.iter (fun ab -> agree [ mk ab ]) pairs) two_path_ops

(* The rows on which the in-kernel box answered differently before the
   table: each engine now gives the tracing box's answer. *)
let settled =
  [
    ([ Mkdir "/srv/res/fred" ], [ "ok" ]);
    ([ Mkdir "/srv/area/new"; Write "/srv/area/new/x" ], [ "ok"; "ok" ]);
    ([ Rmdir "/srv/area/empty" ], [ "ok" ]);
    ([ Readlink "/srv/area/lnk" ], [ "ok:/srv/priv/f" ]);
    ([ Getacl "/srv/area" ], [ "ok:" ^ Principal.to_string fred ^ " rwlxad\n" ]);
    ([ Setacl "/srv/area" ], [ "ok" ]);
    ([ Rename ("/srv/area/lnk", "/srv/area/lnk2") ], [ "ok" ]);
    ([ Readdir "/srv/area" ], [ "ok:empty,f,lnk" ]);
  ]

let settled_rows () =
  List.iter
    (fun (ops, want) ->
      let check name (verdicts, _) =
        Alcotest.(check (list string)) (name ^ ": " ^ show ops) want verdicts
      in
      check "box" (run_box ops);
      check "kbox" (run_kbox ops);
      if List.for_all served_by_chirp ops then check "chirp" (run_chirp ops);
      agree ops)
    settled

(* ------------------------------------------------------------------ *)
(* Seeded: generated sequences.                                         *)

let op_gen ~chirp_only =
  let open QCheck.Gen in
  let path = oneofl paths in
  let pair = oneofl pairs in
  let chirp =
    [
      map (fun p -> Mkdir p) path; map (fun p -> Rmdir p) path;
      map (fun p -> Unlink p) path; map (fun p -> Write p) path;
      map (fun p -> Read p) path; map (fun p -> Stat p) path;
      map (fun p -> Readdir p) path; map (fun p -> Getacl p) path;
      map (fun p -> Setacl p) path; map (fun ab -> Rename (fst ab, snd ab)) pair;
    ]
  in
  let boxes_only =
    [
      map (fun p -> Readlink p) path; map (fun ab -> Symlink (fst ab, snd ab)) pair;
      map (fun ab -> Link (fst ab, snd ab)) pair; map (fun p -> Chmod p) path;
      map (fun p -> Truncate p) path; map (fun p -> Chdir p) path;
    ]
  in
  oneof (if chirp_only then chirp else chirp @ boxes_only)

let sequence ~chirp_only =
  QCheck.make
    QCheck.Gen.(list_size (int_range 2 10) (op_gen ~chirp_only))
    ~shrink:QCheck.Shrink.list ~print:show

let prop_three_engines =
  QCheck.Test.make ~name:"box, kbox and chirp agree on generated sequences"
    ~count:40 (sequence ~chirp_only:true) (fun ops ->
      match disagreement ops with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let prop_two_boxes =
  QCheck.Test.make ~name:"box and kbox agree on generated sequences" ~count:40
    (sequence ~chirp_only:false) (fun ops ->
      match disagreement ops with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let seed =
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 2005)
  | None -> 2005

let suite =
  [
    Alcotest.test_case "every (operation, path) pair agrees" `Quick every_pair_agrees;
    Alcotest.test_case "the settled rows answer as the box does" `Quick settled_rows;
  ]
  @ List.map
      (fun test -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test)
      [ prop_three_engines; prop_two_boxes ]
