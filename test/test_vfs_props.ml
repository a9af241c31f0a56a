(* Random-operation invariant tests for the filesystem: whatever a
   random sequence of operations does, structural invariants hold.
   These guard the substrate every security argument rests on. *)

module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode
module Path = Idbox_vfs.Path
module Perm = Idbox_vfs.Perm
module Errno = Idbox_vfs.Errno

type fop =
  | O_write of string * string
  | O_mkdir of string
  | O_unlink of string
  | O_rmdir of string
  | O_rename of string * string
  | O_link of string * string
  | O_symlink of string * string
  | O_truncate of string * int

let paths = [ "/a"; "/b"; "/d"; "/d/x"; "/d/y"; "/d/e"; "/d/e/z"; "/f" ]

let fop_gen =
  let open QCheck.Gen in
  let path = oneofl paths in
  frequency
    [
      (4, map2 (fun p d -> O_write (p, d)) path (oneofl [ ""; "x"; "data" ]));
      (3, map (fun p -> O_mkdir p) path);
      (3, map (fun p -> O_unlink p) path);
      (2, map (fun p -> O_rmdir p) path);
      (2, map2 (fun a b -> O_rename (a, b)) path path);
      (2, map2 (fun t p -> O_link (t, p)) path path);
      (2, map2 (fun t p -> O_symlink (t, p)) path path);
      (1, map2 (fun p n -> O_truncate (p, n)) path (int_range 0 64));
    ]

let apply fs op =
  let ign = function Ok _ -> () | Error _ -> () in
  match op with
  | O_write (p, d) -> ign (Fs.write_file fs ~uid:0 p d)
  | O_mkdir p -> ign (Fs.mkdir fs ~uid:0 ~mode:0o755 p)
  | O_unlink p -> ign (Fs.unlink fs ~uid:0 p)
  | O_rmdir p -> ign (Fs.rmdir fs ~uid:0 p)
  | O_rename (a, b) -> ign (Fs.rename fs ~uid:0 ~src:a ~dst:b)
  | O_link (t, p) -> ign (Fs.link fs ~uid:0 ~target:t p)
  | O_symlink (t, p) -> ign (Fs.symlink fs ~uid:0 ~target:t p)
  | O_truncate (p, n) ->
    ign
      (match Fs.open_file fs ~uid:0 ~flags:{ Fs.rdonly with rd = false; wr = true } ~mode:0 p with
       | Ok ino -> Ok (Inode.truncate ino ~len:n)
       | Error e -> Error e)

(* Walk the live tree, collecting every (path, ino, kind, nlink). *)
let rec walk fs acc path =
  match Fs.lstat fs ~uid:0 path with
  | Error _ -> acc
  | Ok st ->
    let acc = (path, st) :: acc in
    if st.Fs.st_kind = Inode.Directory then
      match Fs.readdir fs ~uid:0 path with
      | Error _ -> acc
      | Ok names ->
        List.fold_left
          (fun acc n ->
            walk fs acc (if String.equal path "/" then "/" ^ n else path ^ "/" ^ n))
          acc names
    else acc

let invariants fs =
  let entries = walk fs [] "/" in
  (* 1. nlink of every regular file equals the number of directory
        entries that reference its inode. *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (_, (st : Fs.stat)) ->
      if st.Fs.st_kind = Inode.Regular then
        Hashtbl.replace counts st.Fs.st_ino
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts st.Fs.st_ino)))
    entries;
  let nlink_ok =
    List.for_all
      (fun (_, (st : Fs.stat)) ->
        st.Fs.st_kind <> Inode.Regular
        || st.Fs.st_nlink = Option.value ~default:0 (Hashtbl.find_opt counts st.Fs.st_ino))
      entries
  in
  (* 2. every reachable object stats and has sane fields. *)
  let sane =
    List.for_all
      (fun (_, (st : Fs.stat)) -> st.Fs.st_size >= 0 && st.Fs.st_nlink >= 1)
      entries
  in
  (* 3. readdir agrees with lookup: every listed name resolves (to
        something; dangling symlinks resolve via lstat). *)
  let listed_resolvable =
    List.for_all
      (fun (path, (st : Fs.stat)) ->
        st.Fs.st_kind <> Inode.Directory
        ||
        match Fs.readdir fs ~uid:0 path with
        | Error _ -> false
        | Ok names ->
          List.for_all
            (fun n ->
              match
                Fs.lstat fs ~uid:0
                  (if String.equal path "/" then "/" ^ n else path ^ "/" ^ n)
              with
              | Ok _ -> true
              | Error _ -> false)
            names)
      entries
  in
  nlink_ok && sane && listed_resolvable

let prop_invariants =
  QCheck.Test.make ~name:"fs invariants under random ops" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 60) fop_gen))
    (fun ops ->
      let fs = Fs.create () in
      List.iter (apply fs) ops;
      invariants fs)

let prop_write_then_read =
  QCheck.Test.make ~name:"last write wins through any op noise" ~count:100
    (QCheck.pair
       (QCheck.make QCheck.Gen.(list_size (int_range 0 30) fop_gen))
       (QCheck.string_of_size (QCheck.Gen.int_range 0 50)))
    (fun (ops, payload) ->
      let fs = Fs.create () in
      List.iter (apply fs) ops;
      (* Whatever happened, a fresh write to an untouched path reads
         back exactly. *)
      match Fs.write_file fs ~uid:0 "/witness" payload with
      | Error _ -> false
      | Ok () ->
        (match Fs.read_file fs ~uid:0 "/witness" with
         | Ok got -> String.equal got payload
         | Error _ -> false))

(* {1 Walks against the list code}

   [Fs.resolve] and [Fs.resolve_no_follow] scan their path in place and
   [Fs.canonical_parents] keeps an inode cursor.  The references below
   are the code they replaced: the component-list walk, and the
   canonicaliser that [lstat]s every prefix from "/".  Both references
   split paths with [Test_path]'s list code and walk with each other,
   so none of the code under test is on their side.  Seeded random
   trees hold every kind of symlink the walks treat specially. *)

module Ref = struct
  include Test_path.Ref

  let walk fs ~uid ~follow_last path =
    let searchable dir =
      Perm.check ~uid ~owner:(Inode.uid dir) ~mode:(Inode.mode dir) Perm.X
    in
    let rec go trail cur comps nexp =
      match comps with
      | [] -> Ok cur
      | name :: rest ->
        if Inode.kind cur <> Inode.Directory then Error Errno.ENOTDIR
        else if not (searchable cur) then Error Errno.EACCES
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
                if nexp >= Fs.symlink_limit then Error Errno.ELOOP
                else
                  let target = Inode.link_target child in
                  let tcomps = components target in
                  if is_absolute target then go [] (Fs.root fs) (tcomps @ rest) (nexp + 1)
                  else go trail cur (tcomps @ rest) (nexp + 1)
              | Inode.Symlink | Inode.Regular | Inode.Directory | Inode.Fifo ->
                go (cur :: trail) child rest nexp))
    in
    go [] (Fs.root fs) (components path) 0

  (* One step per non-final component, each an lstat from "/". *)
  let canonical_parents fs path =
    let steps = ref 0 in
    let join resolved comp =
      if String.equal resolved "/" then "/" ^ comp else resolved ^ "/" ^ comp
    in
    let rec go resolved comps expansions =
      match comps with
      | [] -> resolved
      | [ final ] -> join resolved final
      | comp :: rest ->
        incr steps;
        if String.equal comp ".." then go (dirname resolved) rest expansions
        else
          let candidate = join resolved comp in
          (match walk fs ~uid:0 ~follow_last:false candidate with
           | Ok link
             when Inode.kind link = Inode.Symlink && expansions < Fs.symlink_limit ->
             let target = Inode.link_target link in
             if is_absolute target then
               go "/" (components target @ rest) (expansions + 1)
             else go resolved (components target @ rest) (expansions + 1)
           | Ok _ | Error _ -> go candidate rest expansions)
    in
    let p = normalize path in
    let canonical = if String.equal p "/" then "/" else go "/" (components p) 0 in
    (canonical, !steps)
end

let seeds =
  let base = [ 1; 7; 42; 2005; 90210 ] in
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try (int_of_string s mod 1_000_000) :: base with _ -> base)
  | None -> base

let names = [| "a"; "b"; "c"; "..."; ".a" |]
let visitor = 1000

let random_path rng ~extra =
  let pool = Array.append names (Array.append extra [| "."; ".."; "" |]) in
  let comps =
    List.init (Random.State.int rng 7) (fun _ -> pool.(Random.State.int rng (Array.length pool)))
  in
  let body = String.concat "/" comps in
  match Random.State.int rng 8 with
  | 0 -> body
  | 1 -> "/" ^ body ^ "/"
  | 2 -> "/" ^ body ^ "/."
  | _ -> "/" ^ body

(* A random tree plus the fixed hazards: a symlink chain longer than
   the shared budget (and one just inside it), a symlink through a
   regular file, a mode-0o000 directory, and a directory only its owner
   may search.  Returns the fs and every path it made. *)
let random_tree seed =
  let rng = Random.State.make [| seed; 0x5ca9 |] in
  let fs = Fs.create () in
  let made = ref [ "/" ] in
  let ign = function Ok _ -> () | Error _ -> () in
  let add path r = match r with Ok _ -> made := path :: !made | Error _ -> () in
  let rec grow dir depth =
    Array.iter
      (fun name ->
        let path = if String.equal dir "/" then "/" ^ name else dir ^ "/" ^ name in
        match Random.State.int rng 6 with
        | 0 | 1 when depth < 3 ->
          add path (Fs.mkdir fs ~uid:0 ~mode:0o755 path);
          grow path (depth + 1)
        | 2 -> add path (Fs.write_file fs ~uid:0 path "x")
        | 3 ->
          let target =
            match Random.State.int rng 5 with
            | 0 -> random_path rng ~extra:[||]
            | 1 -> "../" ^ names.(Random.State.int rng (Array.length names))
            | 2 -> names.(Random.State.int rng (Array.length names)) ^ "/../b"
            | 3 -> "/gone/" ^ names.(Random.State.int rng (Array.length names))
            | _ -> String.concat "/" [ names.(Random.State.int rng 3); names.(Random.State.int rng 3) ]
          in
          add path (Fs.symlink fs ~uid:0 ~target path)
        | _ -> ())
      names
  in
  grow "/" 0;
  let chain dir n last =
    ign (Fs.mkdir fs ~uid:0 ~mode:0o755 dir);
    for i = 0 to n - 1 do
      let target = if i = n - 1 then last else Printf.sprintf "l%d" (i + 1) in
      add (Printf.sprintf "%s/l%d" dir i) (Fs.symlink fs ~uid:0 ~target (Printf.sprintf "%s/l%d" dir i))
    done
  in
  chain "/long" (Fs.symlink_limit + 4) "/";
  chain "/short" (Fs.symlink_limit - 1) "/a";
  add "/reg" (Fs.write_file fs ~uid:0 "/reg" "r");
  add "/through" (Fs.symlink fs ~uid:0 ~target:"/reg/a" "/through");
  add "/up" (Fs.symlink fs ~uid:0 ~target:"reg/.." "/up");
  add "/locked" (Fs.mkdir fs ~uid:0 ~mode:0o755 "/locked");
  add "/locked/a" (Fs.mkdir fs ~uid:0 ~mode:0o755 "/locked/a");
  add "/locked/l" (Fs.symlink fs ~uid:0 ~target:"/a" "/locked/l");
  ign (Fs.chmod fs ~uid:0 ~mode:0o000 "/locked");
  add "/own" (Fs.mkdir fs ~uid:0 ~mode:0o700 "/own");
  add "/own/a" (Fs.mkdir fs ~uid:0 ~mode:0o755 "/own/a");
  add "/into" (Fs.symlink fs ~uid:0 ~target:"/locked/a" "/into");
  (fs, !made)

let extra = [| "long"; "short"; "l0"; "l3"; "reg"; "through"; "up"; "locked"; "own"; "into"; "l"; "gone" |]

(* Probes: random paths, and every made path as is, under "." and "/",
   and with a child name below it. *)
let probes rng made =
  List.init 300 (fun _ -> random_path rng ~extra)
  @ List.concat_map
      (fun p ->
        let under s = if String.equal p "/" then "/" ^ s else p ^ "/" ^ s in
        [ p; under "."; p ^ "/"; under "a"; under "./a"; under "../a" ])
      made

let show_inode = function
  | Ok inode -> Printf.sprintf "ino %d" (Inode.ino inode)
  | Error e -> Errno.to_string e

let same_inode a b =
  match (a, b) with
  | Ok x, Ok y -> x == y
  | Error x, Error y -> x = y
  | Ok _, Error _ | Error _, Ok _ -> false

(* The trees must keep reaching the cases the walks treat specially, or
   agreement would prove little. *)
let require_seen what seen =
  List.iter
    (fun (name, hit) -> if not hit then Alcotest.failf "no probe %s %s" what name)
    seen

let resolvers_match_list_walk () =
  let outcomes = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      let fs, made = random_tree seed in
      let rng = Random.State.make [| seed; 0x9b0e |] in
      List.iter
        (fun path ->
          List.iter
            (fun uid ->
              List.iter
                (fun (name, follow_last, got) ->
                  let want = Ref.walk fs ~uid ~follow_last path in
                  if not (same_inode want got) then
                    Alcotest.failf "seed %d uid %d %s %S: list walk %s, scanner %s" seed uid name
                      path (show_inode want) (show_inode got);
                  (match got with
                   | Ok inode when Inode.kind inode = Inode.Symlink ->
                     Hashtbl.replace outcomes "symlink" ()
                   | Ok _ -> Hashtbl.replace outcomes "OK" ()
                   | Error e -> Hashtbl.replace outcomes (Errno.to_string e) ()))
                [ ("resolve", true, Fs.resolve fs ~uid path);
                  ("resolve_no_follow", false, Fs.resolve_no_follow fs ~uid path) ])
            [ 0; visitor ])
        (probes rng made))
    seeds;
  require_seen "resolved to"
    (List.map
       (fun o -> (o, Hashtbl.mem outcomes o))
       [ "OK"; "symlink"; Errno.to_string Errno.ENOENT; Errno.to_string Errno.ENOTDIR;
         Errno.to_string Errno.EACCES; Errno.to_string Errno.ELOOP ])

let canonicaliser_matches_root_walk () =
  let moved = ref false and capped = ref false in
  List.iter
    (fun seed ->
      let fs, made = random_tree seed in
      let rng = Random.State.make [| seed; 0xca70 |] in
      List.iter
        (fun path ->
          let want_path, want_steps = Ref.canonical_parents fs path in
          let got_path, got_steps = Fs.canonical_parents fs path in
          if not (String.equal want_path got_path && want_steps = got_steps) then
            Alcotest.failf "seed %d %S: from the root %S in %d steps, cursor %S in %d" seed path
              want_path want_steps got_path got_steps;
          if not (String.equal got_path (Ref.normalize path)) then moved := true;
          if got_steps > Fs.symlink_limit then capped := true)
        (probes rng made))
    seeds;
  require_seen "canonicalised"
    [ ("through an ancestor symlink", !moved); ("past the expansion budget", !capped) ]

(* {1 The file-digest memo}

   [Fs.digest_file] answers from an MD5 the inode keeps until its bytes
   change.  Seeded content changes go through kernel syscalls, and after
   each one every name's digest must equal the MD5 of what the name
   reads as, errors included, for root and for a visitor who may not
   read every name.  Each check re-warms every memo, so the next change
   always meets a kept digest. *)

module Kernel = Idbox_kernel.Kernel
module Syscall = Idbox_kernel.Syscall

let memo_targets = [| "/m/f0"; "/m/f1"; "/m/f2"; "/m/locked" |]
let memo_names = Array.to_list memo_targets @ [ "/m/alias"; "/m/dir"; "/m/none" ]

let digest_memo_never_stale () =
  let changed = Hashtbl.create 16 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed; 0xd1e5 |] in
      let k = Kernel.create () in
      let fs = Kernel.fs k in
      let call = Kernel.execute k (Kernel.make_view k ~uid:0 ()) in
      let ign (_ : Syscall.result) = () in
      let mode_of path = if String.equal path "/m/locked" then 0o600 else 0o644 in
      let wr = { Fs.rdonly with rd = false; wr = true } in
      let with_fd ?(mode = 0o644) path flags f =
        match call (Syscall.Open { path; flags; mode }) with
        | Ok (Syscall.Int fd) ->
          f fd;
          ign (call (Syscall.Close fd))
        | Ok _ | Error _ -> ()
      in
      let data () =
        String.init (Random.State.int rng 40) (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let size path = match Fs.stat fs ~uid:0 path with Ok st -> st.Fs.st_size | Error _ -> 0 in
      let write fd = ign (call (Syscall.Write { fd; data = data () })) in
      let changes =
        [
          ("write at or past EOF", fun p ->
              with_fd p wr (fun fd ->
                  ign
                    (call
                       (Syscall.Lseek
                          { fd; off = size p + Random.State.int rng 3 * Random.State.int rng 9;
                            whence = Syscall.Seek_set }));
                  write fd));
          ("pwrite", fun p ->
              with_fd p wr (fun fd ->
                  ign
                    (call
                       (Syscall.Pwrite
                          { fd; off = Random.State.int rng (size p + 8); data = data () }))));
          ("O_APPEND write", fun p -> with_fd p { wr with append = true } write);
          ("truncate", fun p ->
              ign (call (Syscall.Truncate { path = p; len = Random.State.int rng (size p + 24) })));
          ("truncating open", fun p -> with_fd p { wr with trunc = true } (fun _ -> ()));
          ("write through a hard link", fun p ->
              ign (call (Syscall.Unlink "/m/alias"));
              ign (call (Syscall.Link { target = p; path = "/m/alias" }));
              with_fd "/m/alias" wr (fun fd ->
                  ign (call (Syscall.Pwrite { fd; off = Random.State.int rng 16; data = data () }))));
          ("rename over the name", fun p ->
              with_fd ~mode:(mode_of p) "/m/tmp" Fs.wronly_create write;
              ign (call (Syscall.Rename { src = "/m/tmp"; dst = p })));
          ("unlink and re-create", fun p ->
              ign (call (Syscall.Unlink p));
              with_fd ~mode:(mode_of p) p Fs.wronly_create write);
          ("Fs.write_file", fun p -> ignore (Fs.write_file fs ~uid:0 ~mode:(mode_of p) p (data ())));
          (* [Fs.write_file] opens without truncating: over a longer
             file whose digest is kept, only [Inode.set_contents] can
             both shorten it and drop the digest. *)
          ("Fs.write_file, longer then shorter", fun p ->
              let long = data () ^ String.make 64 'L' in
              ignore (Fs.write_file fs ~uid:0 ~mode:(mode_of p) p long);
              ignore (Fs.digest_file fs ~uid:0 p);
              ignore
                (Fs.write_file fs ~uid:0 ~mode:(mode_of p) p
                   (String.sub long 0 (Random.State.int rng (String.length long)))));
          ("Inode.set_contents", fun p ->
              match Fs.resolve fs ~uid:0 p with
              | Ok inode -> Inode.set_contents inode (data ())
              | Error _ -> ());
        ]
      in
      List.iter
        (fun (what, _) -> if not (Hashtbl.mem changed what) then Hashtbl.replace changed what false)
        changes;
      ignore (Fs.mkdir_p fs ~uid:0 "/m/dir");
      Array.iter
        (fun p -> ignore (Fs.write_file fs ~uid:0 ~mode:(mode_of p) p "seed contents"))
        memo_targets;
      ignore (Fs.link fs ~uid:0 ~target:"/m/f0" "/m/alias");
      let show = function Ok d -> Digest.to_hex d | Error e -> Errno.to_string e in
      let check step what =
        List.concat_map
          (fun uid ->
            List.map
              (fun name ->
                let got = show (Fs.digest_file fs ~uid name) in
                let want = show (Result.map Digest.string (Fs.read_file fs ~uid name)) in
                if not (String.equal got want) then
                  Alcotest.failf "seed %d step %d (%s): %s as uid %d: digest %s, contents hash to %s"
                    seed step what name uid got want;
                got)
              memo_names)
          [ 0; visitor ]
      in
      let before = ref (check 0 "set-up") in
      for step = 1 to 200 do
        let what, change = List.nth changes (Random.State.int rng (List.length changes)) in
        change memo_targets.(Random.State.int rng (Array.length memo_targets));
        let after = check step what in
        if after <> !before then Hashtbl.replace changed what true;
        before := after
      done)
    seeds;
  require_seen "changed a digest by" (List.of_seq (Hashtbl.to_seq changed))

(* A regular file keeps its whole contents as one string from the first
   read of all of it until its bytes change.  Over seeded sequences of
   operations on one file — whole reads, reads of random ranges (offset
   0 included), writes at random offsets (past the end too, where the
   hole must read as zeros), [O_TRUNC] opens, truncates down and up,
   [set_contents], [contents] and [digest] — the file equals a plain
   [Bytes] model after every step, and three rules hold: two whole reads
   with no change between them return the same string ([==]); no later
   change alters a string an earlier read returned; and the next whole
   read after a change returns the new bytes. *)
let contents_memo_matches_model () =
  let seen = Hashtbl.create 16 in
  let saw what = Hashtbl.replace seen what true in
  List.iter
    (fun what -> Hashtbl.replace seen what false)
    [ "a repeated whole read shared"; "a hole read as zeros"; "contents shared the kept string";
      "a whole read after a change" ];
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed; 0x3e30 |] in
      let fs = Fs.create () in
      let path = "/f" in
      ignore (Fs.write_file fs ~uid:0 path "");
      let inode =
        match Fs.resolve fs ~uid:0 path with Ok i -> i | Error _ -> Alcotest.fail "resolve /f"
      in
      let model = ref Bytes.empty in
      let kept = ref None in  (* the last whole read, while nothing changed *)
      let returned = ref [] in  (* earlier results, each with its own copy *)
      let remember got =
        returned := (got, String.init (String.length got) (String.get got)) :: !returned;
        if List.length !returned > 32 then
          returned := List.filteri (fun i _ -> i < 32) !returned
      in
      let fail step what fmt =
        Printf.ksprintf (fun m -> Alcotest.failf "seed %d step %d (%s): %s" seed step what m) fmt
      in
      let data () =
        String.init (Random.State.int rng 24) (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let changed = ref false in
      let change () =
        kept := None;
        changed := true
      in
      let size () = Bytes.length !model in
      let set_len n =
        let b = Bytes.make n '\000' in
        Bytes.blit !model 0 b 0 (min n (size ()));
        model := b
      in
      for step = 1 to 400 do
        let what =
          match Random.State.int rng 9 with
          | 0 | 1 ->
            let got = Inode.read inode ~off:0 ~len:(size () + Random.State.int rng 4) in
            if not (String.equal got (Bytes.to_string !model)) then
              fail step "whole read" "got %S, model %S" got (Bytes.to_string !model);
            (match !kept with
             | Some k when size () > 0 ->
               if not (got == k) then fail step "whole read" "a second copy of unchanged bytes";
               saw "a repeated whole read shared"
             | Some _ | None -> ());
            kept := Some got;
            remember got;
            "whole read"
          | 2 ->
            let off = Random.State.int rng (size () + 4) and len = Random.State.int rng (size () + 4) in
            let got = Inode.read inode ~off ~len in
            let want =
              if off >= size () then "" else Bytes.sub_string !model off (min len (size () - off))
            in
            if not (String.equal got want) then
              fail step "range read" "[%d, +%d): got %S, want %S" off len got want;
            remember got;
            "range read"
          | 3 ->
            let off = Random.State.int rng (size () + 12) and d = data () in
            let n = Inode.write inode ~off d in
            if n <> String.length d then fail step "write" "wrote %d of %d" n (String.length d);
            if off > size () && String.length d > 0 then saw "a hole read as zeros";
            if off + String.length d > size () then set_len (off + String.length d);
            Bytes.blit_string d 0 !model off (String.length d);
            change ();
            "write"
          | 4 ->
            (match
               Fs.open_file fs ~uid:0 ~flags:{ Fs.rdonly with rd = false; wr = true; trunc = true }
                 ~mode:0 path
             with
             | Ok _ -> ()
             | Error e -> fail step "O_TRUNC open" "%s" (Errno.to_string e));
            model := Bytes.empty;
            change ();
            "O_TRUNC open"
          | 5 ->
            let len = Random.State.int rng (size () + 16) in
            Inode.truncate inode ~len;
            set_len len;
            change ();
            if len > 0 then "truncate up or down" else "truncate to zero"
          | 6 ->
            let d = data () in
            Inode.set_contents inode d;
            model := Bytes.of_string d;
            change ();
            "set_contents"
          | 7 ->
            let got = Inode.contents inode in
            if not (String.equal got (Bytes.to_string !model)) then
              fail step "contents" "got %S, model %S" got (Bytes.to_string !model);
            (match !kept with
             | Some k when size () > 0 ->
               if not (got == k) then fail step "contents" "a copy of the kept string";
               saw "contents shared the kept string"
             | Some _ | None -> ());
            remember got;
            "contents"
          | _ ->
            let got = Inode.digest inode and want = Digest.bytes !model in
            if not (String.equal got want) then
              fail step "digest" "%s, model %s" (Digest.to_hex got) (Digest.to_hex want);
            "digest"
        in
        if Inode.size inode <> size () then
          fail step what "size %d, model %d" (Inode.size inode) (size ());
        (* Check the whole file after every step: on about half the
           steps by a whole read, which keeps its string as any would
           (after a change it is the next whole read), else in two
           pieces, so [contents] also meets a file with no kept
           string. *)
        let n = size () in
        let file =
          if n > 0 && Random.State.bool rng then begin
            let whole = Inode.read inode ~off:0 ~len:n in
            (match !kept with
             | Some k when not (whole == k) -> fail step what "a second copy of unchanged bytes"
             | Some _ | None -> ());
            if !changed then saw "a whole read after a change";
            changed := false;
            kept := Some whole;
            whole
          end
          else if n > 0 then Inode.read inode ~off:0 ~len:(n - 1) ^ Inode.read inode ~off:(n - 1) ~len:1
          else Inode.read inode ~off:0 ~len:1
        in
        if not (String.equal file (Bytes.to_string !model)) then
          fail step what "file %S, model %S" file (Bytes.to_string !model);
        List.iter
          (fun (got, copy) ->
            if not (String.equal got copy) then
              fail step what "an earlier result changed from %S to %S" copy got)
          !returned
      done)
    seeds;
  require_seen "showed" (List.of_seq (Hashtbl.to_seq seen))

(* A directory keeps its sorted listing until an entry is added or
   removed.  Over a seeded storm of creates, unlinks, renames (within a
   directory and across two), mkdirs, rmdirs, hard links and symlinks,
   every directory's listing — read after every step, so a kept one
   meets the next change — equals the sorted names [Inode.dir_find]
   finds among every name the storm uses. *)
let listing_dirs = [| "/"; "/p"; "/q"; "/p/r" |]
let listing_names = [| "a"; "b"; "c"; "p"; "q"; "r"; ".__acl" |]

let listing_tracks_entries () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed; 0x1157 |] in
      let fs = Fs.create () in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let path () =
        let d = pick listing_dirs in
        (if String.equal d "/" then "" else d) ^ "/" ^ pick listing_names
      in
      let ops =
        [|
          ("create", fun () -> Fs.write_file fs ~uid:0 (path ()) "x" |> Result.map ignore);
          ("unlink", fun () -> Fs.unlink fs ~uid:0 (path ()));
          ("rename", fun () -> Fs.rename fs ~uid:0 ~src:(path ()) ~dst:(path ()));
          ("mkdir", fun () -> Fs.mkdir fs ~uid:0 ~mode:0o755 (path ()) |> Result.map ignore);
          ("rmdir", fun () -> Fs.rmdir fs ~uid:0 (path ()));
          ("link", fun () -> Fs.link fs ~uid:0 ~target:(path ()) (path ()));
          ("symlink", fun () -> Fs.symlink fs ~uid:0 ~target:(path ()) (path ()));
        |]
      in
      for step = 1 to 400 do
        let what, op = pick ops in
        (match op () with
         | Ok () -> Hashtbl.replace seen what ()
         | Error _ -> ());
        Array.iter
          (fun d ->
            match Fs.resolve fs ~uid:0 d with
            | Ok dir when Inode.kind dir = Inode.Directory ->
              let want =
                Array.to_list listing_names
                |> List.filter (fun n -> Inode.dir_find dir n <> None)
                |> List.sort String.compare
              in
              let got = Inode.dir_entries dir in
              if got <> want then
                Alcotest.failf "seed %d step %d (%s): %s lists [%s], holds [%s]" seed step what d
                  (String.concat " " got) (String.concat " " want);
              (match Fs.readdir fs ~uid:0 d with
               | Ok names when names = want -> ()
               | Ok _ | Error _ -> Alcotest.failf "seed %d step %d: readdir %s" seed step d)
            | Ok _ | Error _ -> ())
          listing_dirs
      done)
    seeds;
  List.iter
    (fun what -> if not (Hashtbl.mem seen what) then Alcotest.failf "no %s succeeded" what)
    [ "create"; "unlink"; "rename"; "mkdir"; "rmdir"; "link"; "symlink" ]

(* {1 The dentry cache}

   [Fs.resolve] and [Fs.resolve_no_follow] answer a repeated path from
   the dentry cache while [Fs.generation] stands still.  Over a seeded
   mix of the changes that can move a resolution -- renames, unlink and
   re-create, symlink swaps, mkdir and rmdir, chmod and chown of
   ancestors -- every probe is resolved after every step both ways, for
   several uids, and must equal the uncached scan.  Each check warms
   the cache, so the next step always meets kept answers.  Every kind
   of change must move some probe's answer, or agreement would prove
   little. *)

let dentry_uids = [ 0; visitor; visitor + 1 ]
let dentry_modes = [| 0o000; 0o700; 0o711; 0o755; 0o644 |]

let dentry_cache_matches_scan () =
  let moved = Hashtbl.create 8 and hits = ref 0 and flushes = ref 0 in
  List.iter
    (fun seed ->
      let fs, made = random_tree seed in
      let rng = Random.State.make [| seed; 0xde47 |] in
      let made = Array.of_list made in
      let pick () = made.(Random.State.int rng (Array.length made)) in
      let probes =
        Array.of_list (List.filteri (fun i _ -> i mod 3 = 0) (probes rng (Array.to_list made)))
      in
      let ign = function Ok _ -> () | Error _ -> () in
      let changes =
        [|
          ("rename", fun () -> ign (Fs.rename fs ~uid:0 ~src:(pick ()) ~dst:(pick ())));
          ("unlink and re-create", fun () ->
              let p = pick () in
              ign (Fs.unlink fs ~uid:0 p);
              ign (Fs.write_file fs ~uid:0 p "again"));
          ("symlink swap", fun () ->
              let p = pick () in
              ign (Fs.unlink fs ~uid:0 p);
              ign (Fs.symlink fs ~uid:0 ~target:(pick ()) p));
          ("mkdir", fun () -> ign (Fs.mkdir fs ~uid:0 ~mode:0o755 (pick () ^ "/a")));
          ("rmdir", fun () -> ign (Fs.rmdir fs ~uid:0 (pick ())));
          ("chmod", fun () ->
              ign
                (Fs.chmod fs ~uid:0
                   ~mode:dentry_modes.(Random.State.int rng (Array.length dentry_modes))
                   (Path.dirname (pick ()))));
          ("chown", fun () ->
              ign
                (Fs.chown fs ~uid:0
                   ~owner:(List.nth dentry_uids (Random.State.int rng (List.length dentry_uids)))
                   (Path.dirname (pick ()))));
        |]
      in
      let answers () =
        Array.map
          (fun path ->
            List.concat_map
              (fun uid ->
                List.map
                  (fun follow_last ->
                    let got =
                      if follow_last then Fs.resolve fs ~uid path
                      else Fs.resolve_no_follow fs ~uid path
                    in
                    let want = Fs.resolve_uncached fs ~uid ~follow_last path in
                    if not (same_inode want got) then
                      Alcotest.failf "seed %d uid %d follow %b %S: scan %s, cache %s" seed uid
                        follow_last path (show_inode want) (show_inode got);
                    show_inode want)
                  [ true; false ])
              dentry_uids)
          probes
      in
      Array.iter
        (fun (what, _) -> if not (Hashtbl.mem moved what) then Hashtbl.replace moved what false)
        changes;
      let before = Fs.dentry_stats fs in
      let last = ref (answers ()) in
      for _ = 1 to 60 do
        let what, change = changes.(Random.State.int rng (Array.length changes)) in
        change ();
        let now = answers () in
        if now <> !last then Hashtbl.replace moved what true;
        last := now
      done;
      let after = Fs.dentry_stats fs in
      hits := !hits + after.Fs.hits - before.Fs.hits;
      flushes := !flushes + after.Fs.flushes - before.Fs.flushes)
    seeds;
  if !hits = 0 || !flushes = 0 then
    Alcotest.failf "the cache answered %d and was flushed %d times" !hits !flushes;
  require_seen "answer moved by" (List.of_seq (Hashtbl.to_seq moved))

(* 100,000 distinct paths that resolve, each once: the cache never
   holds more than its bound, and reaches it. *)
let dentry_cache_bounded () =
  let fs = Fs.create () in
  let dirs = 100 and files = 1000 in
  let path d f = Printf.sprintf "/t/d%d/f%d" d f in
  for d = 0 to dirs - 1 do
    ignore (Fs.mkdir_p fs ~uid:0 (Printf.sprintf "/t/d%d" d));
    for f = 0 to files - 1 do
      ignore (Fs.write_file fs ~uid:0 (path d f) "")
    done
  done;
  let most = ref 0 in
  for d = 0 to dirs - 1 do
    for f = 0 to files - 1 do
      (match Fs.resolve fs ~uid:0 (path d f) with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "%s: %s" (path d f) (Errno.to_string e));
      most := max !most (Fs.dentry_stats fs).Fs.entries
    done
  done;
  Alcotest.(check int) "largest size is the bound" Fs.dentry_capacity !most;
  Alcotest.(check bool) "within the bound at the end" true
    ((Fs.dentry_stats fs).Fs.entries <= Fs.dentry_capacity)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_invariants;
    QCheck_alcotest.to_alcotest prop_write_then_read;
    Alcotest.test_case "resolvers match list walk" `Quick resolvers_match_list_walk;
    Alcotest.test_case "canonicaliser matches root walk" `Quick
      canonicaliser_matches_root_walk;
    Alcotest.test_case "file digest memo never stale" `Quick digest_memo_never_stale;
    Alcotest.test_case "whole-contents memo matches a Bytes model" `Quick
      contents_memo_matches_model;
    Alcotest.test_case "directory listing tracks its entries" `Quick listing_tracks_entries;
    Alcotest.test_case "dentry cache matches the scan" `Quick dentry_cache_matches_scan;
    Alcotest.test_case "dentry cache stays within its bound" `Quick dentry_cache_bounded;
  ]
