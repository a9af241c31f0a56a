(* box-read: the paper's Fig. 5(a) path with default settings.

   One host kernel, a supervisor account, and two visiting identities,
   each with its own [Box] (caching and bytecode on).  The fixture is a
   pre-built tree of ACL'd directories of files, an un-ACL'd supervisor
   directory whose files fall back to [nobody] (half of them 0600), and
   a permissive directory of symlinks into the protected ones.  Nothing
   creates or deletes a name once the tree is built, so trap handling,
   the enforce fast path, ACLs and the VFS run with no network, no WAL
   and no recompile. *)

module Kernel = Idbox_kernel.Kernel
module Libc = Idbox_kernel.Libc
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Box = Idbox.Box

type size = {
  dirs : int;
  files : int;  (** Files per ACL'd directory. *)
  max_bytes : int;  (** File sizes are log-uniform in [1, max]. *)
  plain : int;  (** Un-ACL'd supervisor files. *)
  links : int;
  ops : int;  (** Operations per pass, per identity. *)
  window : int;
}

let full = { dirs = 64; files = 32; max_bytes = 65536; plain = 16; links = 32; ops = 20_000; window = 100 }
let tiny = { dirs = 8; files = 4; max_bytes = 4096; plain = 4; links = 4; ops = 4000; window = 40 }

let cns = [| "Alice"; "Bob" |]
let principal cn = "globus:/O=Grid/CN=" ^ cn

(* Eight ACL shapes, some with wildcard entries, and the rights each
   visitor holds under them (the shadow model's answer key). *)
let acl_class c =
  let e p r = Entry.make ~pattern:p (Rights.of_string_exn r) in
  let a = principal "Alice" and b = principal "Bob" in
  match c with
  | 0 -> [ e a "rwl"; e b "rl" ]
  | 1 -> [ e a "rl"; e "globus:/O=Grid/*" "rl" ]
  | 2 -> [ e b "rwl"; e (principal "Carol") "rl" ]
  | 3 -> [ e "globus:/O=Grid/*" "rwl" ]
  | 4 -> [ e a "rwl" ]
  | 5 -> [ e "globus:/O=Grid/*" "rl"; e b "rwl" ]
  | 6 -> [ e a "rwl"; e b "rwl" ]
  | _ -> [ e "globus:/O=Grid/CN=*" "rl"; e a "w" ]

let rights_of_class c who =
  match (c, who) with
  | 0, 0 -> "rwl" | 0, _ -> "rl"
  | 1, _ -> "rl"
  | 2, 0 -> "" | 2, _ -> "rwl"
  | 3, _ -> "rwl"
  | 4, 0 -> "rwl" | 4, _ -> ""
  | 5, 0 -> "rl" | 5, _ -> "rwl"
  | 6, _ -> "rwl"
  | _, 0 -> "rwl" | _, _ -> "rl"

let has c who r = String.contains (rights_of_class (c mod 8) who) r

let plain_path i = Printf.sprintf "/data/plain/p%02d" i
let link_path i = Printf.sprintf "/data/links/l%02d" i

type fixture = {
  kernel : Kernel.t;
  dirs : string array;  (** ACL'd directory paths. *)
  names : string array array;  (** File names per ACL'd directory. *)
  boxes : Box.t array;
  size : size;
  contents : (string, Bytes.t) Hashtbl.t;  (** Path -> bytes (shadow). *)
  listings : string list array;  (** Sorted names per ACL'd directory. *)
  acl_texts : string array;
  link_target : (int * int) array;  (** Link i -> (dir, file). *)
}

let file_path fx k j = fx.dirs.(k) ^ "/" ^ fx.names.(k).(j)

let okf what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Errno.message e)

let build ~(size : size) ~seed =
  let rng = Harness.fixed_rng 0xb0c5 in
  let seeded = Harness.order_rng ~seed 0xb0c5 in
  (* Seeded name tails on directories and files move the bytes every
     path-carrying call copies through the trap. *)
  let dirs =
    Array.init size.dirs (fun k ->
        Printf.sprintf "/data/d%02d%s" k (String.make (Random.State.int seeded 32) 'x'))
  in
  let dir_path k = dirs.(k) in
  let names = Array.init size.dirs (fun _ -> Array.init size.files (Harness.file_name seeded)) in
  let file_path k j = dirs.(k) ^ "/" ^ names.(k).(j) in
  let k = Kernel.create () in
  let sup =
    match Kernel.add_user k "dthain" with Ok e -> e | Error m -> failwith m
  in
  let uid = sup.Idbox_kernel.Account.uid in
  let fs = Kernel.fs k in
  okf "mkdir /data" (Fs.mkdir_p fs ~uid:0 "/data");
  okf "chown /data" (Fs.chown fs ~uid:0 ~owner:uid "/data");
  let contents = Hashtbl.create 4096 in
  let base = String.init (2 * size.max_bytes) (fun _ -> Char.chr (32 + Random.State.int rng 95)) in
  let sizes = Harness.log_uniform_sizes rng ((size.dirs * size.files) + size.plain) 1 size.max_bytes in
  let next = ref 0 in
  let put ?(mode = 0o644) path =
    let n = min size.max_bytes (Harness.jitter seeded sizes.(!next)) in
    incr next;
    let data = String.sub base (Random.State.int rng size.max_bytes) n in
    okf path (Fs.write_file fs ~uid ~mode path data);
    Hashtbl.replace contents path (Bytes.of_string data)
  in
  let acl_texts =
    Array.init size.dirs (fun d ->
        okf "mkdir" (Fs.mkdir fs ~uid ~mode:0o755 (dir_path d) |> Result.map ignore);
        let text = Acl.to_string (Acl.of_entries (acl_class (d mod 8))) in
        okf "acl" (Fs.write_file fs ~uid (dir_path d ^ "/" ^ Acl.filename) text);
        for j = 0 to size.files - 1 do
          put (file_path d j)
        done;
        text)
  in
  let listings = Array.map (fun a -> List.sort compare (Array.to_list a)) names in
  okf "mkdir plain" (Fs.mkdir fs ~uid ~mode:0o755 "/data/plain" |> Result.map ignore);
  for i = 0 to size.plain - 1 do
    put ~mode:(if i mod 2 = 0 then 0o644 else 0o600) (plain_path i)
  done;
  okf "mkdir links" (Fs.mkdir fs ~uid ~mode:0o755 "/data/links" |> Result.map ignore);
  okf "links acl"
    (Fs.write_file fs ~uid ("/data/links/" ^ Acl.filename)
       (Acl.to_string (Acl.of_entries [ Entry.make ~pattern:"globus:/O=Grid/*" (Rights.of_string_exn "rl") ])));
  let link_target =
    Array.init size.links (fun i ->
        let d = Random.State.int rng size.dirs and j = Random.State.int rng size.files in
        okf "symlink" (Fs.symlink fs ~uid ~target:(file_path d j) (link_path i));
        (d, j))
  in
  let boxes =
    Array.map
      (fun cn ->
        okf "box"
          (Box.create k ~supervisor_uid:uid ~identity:(Principal.of_string (principal cn)) ()))
      cns
  in
  { kernel = k; dirs; names; boxes; size; contents; listings; acl_texts; link_target }

(* {1 Operations} *)

type expect = Allowed | Denied

type op =
  | Stat of string
  | Read of { path : string; shadow : string; off : int; len : int; expect : expect }
  | Readdir of { d : int }
  | Getacl of { d : int }
  | Getpid
  | Pwrite of { path : string; off : int; data : string }

let ops ~fx ~seed ~who =
  let size = fx.size in
  let file_path = file_path fx in
  (* Seeded pwrite lengths: the copy each one costs moves with the seed. *)
  let lengths = Harness.order_rng ~seed (0x1e5 + who) in
  let rng = Harness.fixed_rng (0x0b5 + who) in
  let file_len path = Bytes.length (Hashtbl.find fx.contents path) in
  let pick_dir right allowed =
    (* A directory where this visitor does (or does not) hold [right]. *)
    let rec go n =
      let d = Random.State.int rng size.dirs in
      if has d who right = allowed || n > 1000 then d else go (n + 1)
    in
    go 0
  in
  let read ?(shadow = "") path expect =
    let shadow = if shadow = "" then path else shadow in
    let n = file_len shadow in
    let len = if Random.State.bool rng then 1 else 8192 in
    Read { path; shadow; off = Random.State.int rng n; len; expect }
  in
  let kinds =
    Harness.mix rng
      [ (18, `Stat); (30, `Read); (8, `Readdir); (8, `Getacl); (8, `Getpid); (13, `Pwrite);
        (5, `Link); (5, `Plain); (5, `Denied) ]
  in
  let seq =
    Array.init size.ops (fun _ ->
      match kinds () with
      | `Stat ->
        let d = pick_dir 'l' true in
        Stat (file_path d (Random.State.int rng size.files))
      | `Read -> read (file_path (pick_dir 'r' true) (Random.State.int rng size.files)) Allowed
      | `Readdir -> Readdir { d = pick_dir 'l' true }
      | `Getacl -> Getacl { d = pick_dir 'l' true }
      | `Getpid -> Getpid
      | `Pwrite -> begin
        let path = file_path (pick_dir 'w' true) (Random.State.int rng size.files) in
        let n = file_len path in
        let len = min n (16 + Random.State.int lengths 497) in
        let data = String.init len (fun i -> Char.chr (97 + ((i + who) mod 26))) in
        Pwrite { path; off = Random.State.int rng (n - len + 1); data }
      end
      | `Link -> begin
        (* Through a symlink: the target's directory governs. *)
        let i = Random.State.int rng size.links in
        let d, j = fx.link_target.(i) in
        read ~shadow:(file_path d j) (link_path i) (if has d who 'r' then Allowed else Denied)
      end
      | `Plain -> begin
        (* Un-ACL'd: readable only as [nobody] would be. *)
        let i = Random.State.int rng size.plain in
        read (plain_path i) (if i mod 2 = 0 then Allowed else Denied)
      end
      | `Denied -> read (file_path (pick_dir 'r' false) (Random.State.int rng size.files)) Denied)
  in
  Harness.shuffle (Harness.order_rng ~seed (0x0b5 + who)) seq;
  seq

let rdwr = { Fs.rdonly with Fs.wr = true }

(* Perform one op inside the boxed process; [None] when the result
   matches the shadow model, else what went wrong. *)
let perform fx ~pid op =
  let denied what = function
    | Error Errno.EACCES -> None
    | Error e -> Some (what ^ ": expected EACCES, got " ^ Errno.to_string e)
    | Ok _ -> Some (what ^ ": expected EACCES, got success")
  in
  let err what e = Some (what ^ ": " ^ Errno.to_string e) in
  match op with
  | Stat path -> (
    match Libc.stat path with
    | Ok st when st.Fs.st_size = Bytes.length (Hashtbl.find fx.contents path) -> None
    | Ok _ -> Some ("stat " ^ path ^ ": wrong size")
    | Error e -> err ("stat " ^ path) e)
  | Read { path; shadow; off; len; expect } -> (
    match (Libc.open_file path, expect) with
    | Error e, Allowed -> err ("open " ^ path) e
    | r, Denied -> denied ("open " ^ path) r
    | Ok fd, Allowed ->
      let got = Libc.pread fd ~off ~len in
      ignore (Libc.close fd);
      let bytes = Hashtbl.find fx.contents shadow in
      let want = Bytes.sub_string bytes off (min len (Bytes.length bytes - off)) in
      (match got with
       | Ok s when String.equal s want -> None
       | Ok _ -> Some ("pread " ^ path ^ ": wrong bytes")
       | Error e -> err ("pread " ^ path) e))
  | Readdir { d } -> (
    let dir_path d = fx.dirs.(d) in
    match Libc.readdir (dir_path d) with
    | Ok names when List.sort compare names = fx.listings.(d) -> None
    | Ok _ -> Some ("readdir " ^ dir_path d ^ ": wrong names")
    | Error e -> err ("readdir " ^ dir_path d) e)
  | Getacl { d } -> (
    let dir_path d = fx.dirs.(d) in
    match Libc.getacl (dir_path d) with
    | Ok text when String.equal text fx.acl_texts.(d) -> None
    | Ok _ -> Some ("getacl " ^ dir_path d ^ ": wrong text")
    | Error e -> err ("getacl " ^ dir_path d) e)
  | Getpid -> if Libc.getpid () = pid then None else Some "getpid: wrong pid"
  | Pwrite { path; off; data } -> (
    match Libc.open_file ~flags:rdwr path with
    | Error e -> err ("open rw " ^ path) e
    | Ok fd ->
      let r = Libc.pwrite fd ~off data in
      ignore (Libc.close fd);
      (match r with
       | Ok n when n = String.length data ->
         Bytes.blit_string data 0 (Hashtbl.find fx.contents path) off n;
         None
       | Ok _ -> Some ("pwrite " ^ path ^ ": short write")
       | Error e -> err ("pwrite " ^ path) e))

(* {1 Running inside the box}

   [wrap] wraps the box's trap handler for the traced run; the process
   then gets the same environment [Box.spawn_main] builds. *)

let spawn fx ~who ?wrap main =
  let box = fx.boxes.(who) in
  match wrap with
  | None -> Box.spawn_main box ~main ~args:[ "box-read" ]
  | Some wrap ->
    Kernel.spawn_main fx.kernel ~uid:(Box.supervisor_view box).Idbox_kernel.View.uid
      ~cwd:"/"
      ~env:[ ("HOME", Box.home box); ("USER", Box.identity_string box); ("PATH", "/bin") ]
      ~tracer:(wrap (Box.handler box)) ~main ~args:[ "box-read" ] ()

let run_in fx ~who ?wrap body =
  let pid = ref (-1) in
  let result = ref None in
  pid := spawn fx ~who ?wrap (fun _ -> result := Some (body !pid); 0);
  Kernel.run fx.kernel;
  match (!result, Kernel.exit_code fx.kernel !pid) with
  | Some v, Some 0 -> v
  | _ -> failwith "box-read: boxed process did not finish"

let witness fx =
  {
    Harness.w_entries = [ Harness.count_entries (Kernel.fs fx.kernel) ];
    w_sessions = 0;
    w_procs = Harness.live_processes fx.kernel;
    w_heap_words = Harness.major_heap_words ();
  }
