(* The chirp-read and chirp-write operation sequences, their shadow-model
   checks, and the per-operation step the harness times. *)

module D = Chirp_load
module Clock = Idbox_kernel.Clock
module Router = Idbox_cluster.Router
module Geo = Idbox_cluster.Geo
module Protocol = Idbox_chirp.Protocol

type op =
  | Get of { c : int; west : bool; f : int }
  | Stat of { c : int; west : bool; f : int }
  | Readdir of { c : int; west : bool; k : int }
  | Getacl of { c : int; west : bool; k : int }
  | Checksum of { c : int; west : bool; f : int }
  | Put of { c : int; f : int; data : string }
  | Create of { c : int; k : int }
  | Unlink of { c : int; k : int }
  | Mkdir of { c : int; k : int }
  | Rmdir of { c : int; k : int }
  | Setacl of { c : int; k : int; entry : string }
  | Rename of { c : int; f : int; back : bool }
  | Exec of { c : int; k : int; n : int }
  | Dexec of { c : int; k : int; n : int }

let kind = function
  | Get _ -> "get"
  | Stat _ -> "stat"
  | Readdir _ -> "readdir"
  | Getacl _ -> "getacl"
  | Checksum _ -> "checksum"
  | Put _ -> "put"
  | Create _ -> "create"
  | Unlink _ -> "unlink"
  | Mkdir _ -> "mkdir"
  | Rmdir _ -> "rmdir"
  | Setacl _ -> "setacl"
  | Rename _ -> "rename"
  | Exec _ -> "exec"
  | Dexec _ -> "exec_delegated"

(* {1 chirp-read} *)

(* Zipf(0.9) popularity over a permutation of the files drawn from
   [order]; draws come from [rng]. *)
let zipf_sampler order rng n =
  let perm = Array.init n Fun.id in
  Harness.shuffle order perm;
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** 0.9));
    cdf.(r) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

let read_ops ~(size : D.size) ~seed =
  let rng = Harness.fixed_rng 0x4ead in
  let nfiles = size.dirs * size.files in
  let zipf = zipf_sampler rng rng nfiles in
  let client = Harness.mix rng [ (1, 0); (1, 1) ] in
  let region = Harness.mix rng [ (3, false); (1, true) ] in
  let kinds =
    Harness.mix rng [ (35, `Get); (25, `Stat); (10, `Readdir); (10, `Getacl); (20, `Checksum) ]
  in
  Array.init size.ops (fun _ ->
      let c = client () and west = region () in
      let f = zipf () in
      let k = f / size.files in
      match kinds () with
      | `Get -> Get { c; west; f }
      | `Stat -> Stat { c; west; f }
      | `Readdir -> Readdir { c; west; k }
      | `Getacl -> Getacl { c; west; k }
      | `Checksum -> Checksum { c; west; f })
  |> fun seq ->
  Harness.shuffle (Harness.order_rng ~seed 0x4ead) seq;
  seq

(* {1 chirp-write}

   Creates are paired with deletes and renames with renames back, so
   the namespace returns to its starting shape after every pair. *)

(* Every exec leaves its exited processes in the serving kernels'
   process tables (about 12 KB of heap each), so execs are kept to a
   few percent of the mix to hold the heap within the stationarity
   tolerance over a run. *)
let exec_weight = 3

let write_ops ~(size : D.size) ~seed ~(d : D.t) =
  let rng = Harness.fixed_rng 0x3417e in
  let base = String.init 65536 (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
  (* Targets cycle through each client's own directories and files, so
     the pass touches every object equally. *)
  let own_dirs = Array.init 2 (fun c -> Harness.mix rng (List.init (size.dirs / 2) (fun i -> (1, (2 * i) + c)))) in
  let file_in = Harness.mix rng (List.init size.files (fun j -> (1, j))) in
  let client = Harness.mix rng [ (1, 0); (1, 1) ] in
  let kinds =
    Harness.mix rng
      [ (36, `Put); (14, `Create); (12, `Mkdir); (14, `Setacl); (14, `Rename);
        (exec_weight, `Exec); (exec_weight, `Dexec) ]
  in
  (* Actions of one or two ops; a pair stays adjacent when the seed
     shuffles the actions, and the last action never opens a pair. *)
  let actions = ref [] and n = ref 0 in
  while !n < size.ops do
    let c = client () in
    let k = own_dirs.(c) () in
    let f = (k * size.files) + file_in () in
    let job = Random.State.int rng 1_000_000 in
    let kind =
      match kinds () with
      | (`Create | `Mkdir | `Rename) when !n = size.ops - 1 -> `Put
      | kind -> kind
    in
    let action =
      match kind with
      | `Put ->
        let file = d.D.files.(f) in
        [ Put { c; f;
                data = D.contents ~base ~rng ~path:file.D.f_path ~version:(!n + 1)
                    (String.length file.D.f_data) } ]
      | `Create -> [ Create { c; k }; Unlink { c; k } ]
      | `Mkdir -> [ Mkdir { c; k }; Rmdir { c; k } ]
      | `Setacl ->
        let rights = if Random.State.bool rng then "rl" else "r" in
        [ Setacl { c; k; entry = "globus:/O=Grid/CN=Dave " ^ rights } ]
      | `Rename -> [ Rename { c; f; back = false }; Rename { c; f; back = true } ]
      | `Exec -> [ Exec { c; k; n = job } ]
      | `Dexec -> [ Dexec { c; k; n = job } ]
    in
    actions := action :: !actions;
    n := !n + List.length action
  done;
  let actions = Array.of_list (List.rev !actions) in
  Harness.shuffle (Harness.order_rng ~seed 0x3417e) actions;
  Array.of_list (List.concat (Array.to_list actions))

(* The first op of a create/unlink, mkdir/rmdir or rename pair: a
   prefix of the sequence must not end on one. *)
let opens_pair = function
  | Create _ | Mkdir _ | Rename { back = false; _ } -> true
  | _ -> false

(* {1 Execution and checks} *)

type state = {
  d : D.t;
  checksums : string array;  (** Expected hex MD5 per file. *)
  last_exec : (string, string) Hashtbl.t;  (** Output path -> expected bytes. *)
  mutable failures : int;
  mutable first_failure : string option;
}

let state d =
  {
    d;
    checksums = Array.map (fun f -> Digest.to_hex (Digest.string f.D.f_data)) d.D.files;
    last_exec = Hashtbl.create 64;
    failures = 0;
    first_failure = None;
  }

let fail st what =
  st.failures <- st.failures + 1;
  if st.first_failure = None then st.first_failure <- Some what

let tmp_file k = D.dir_path k ^ "/new.tmp"
let tmp_dir k = D.dir_path k ^ "/sub.tmp"
let job_path k = D.dir_path k ^ "/job.exe"

let expect st what = function
  | Ok true -> ()
  | Ok false -> fail st (what ^ ": wrong result")
  | Error e -> fail st (what ^ ": " ^ Idbox_vfs.Errno.to_string e)

let ( let* ) r f = Result.map f r

let run st op =
  let d = st.d in
  let file f = d.D.files.(f) in
  let r c = d.D.routers.(c) and w c = d.D.readers.(c) in
  let what = kind op in
  let res =
    match op with
    | Get { c; west; f } ->
      let* data = if west then Geo.get (w c) (file f).D.f_path else Router.get (r c) (file f).D.f_path in
      String.equal data (file f).D.f_data
    | Stat { c; west; f } ->
      let* s = if west then Geo.stat (w c) (file f).D.f_path else Router.stat (r c) (file f).D.f_path in
      s.Protocol.ws_size = String.length (file f).D.f_data && s.Protocol.ws_kind = "file"
    | Readdir { c; west; k } ->
      let p = d.D.dir_paths.(k) in
      let* names = if west then Geo.readdir (w c) p else Router.readdir (r c) p in
      List.sort compare names = d.D.listings.(k)
    | Getacl { c; west; k } ->
      let p = d.D.dir_paths.(k) in
      let* text = if west then Geo.getacl (w c) p else Router.getacl (r c) p in
      String.equal text d.D.acls.(k)
    | Checksum { c; west; f } ->
      let p = (file f).D.f_path in
      let* sum = if west then Geo.checksum (w c) p else Router.checksum (r c) p in
      String.equal sum st.checksums.(f)
    | Put { c; f; data } ->
      let* () = Router.put (r c) ~path:(file f).D.f_path ~data in
      (file f).D.f_data <- data;
      true
    | Create { c; k } ->
      let* () = Router.put (r c) ~path:(tmp_file k) ~data:"scratch" in
      true
    | Unlink { c; k } ->
      let* () = Router.unlink (r c) (tmp_file k) in
      true
    | Mkdir { c; k } ->
      let* () = Router.mkdir (r c) (tmp_dir k) in
      true
    | Rmdir { c; k } ->
      let* () = Router.rmdir (r c) (tmp_dir k) in
      true
    | Setacl { c; k; entry } ->
      let* () = Router.setacl (r c) ~path:d.D.dir_paths.(k) ~entry in
      true
    | Rename { c; f; back } ->
      let p = (file f).D.f_path in
      let src, dst = if back then (p ^ ".mv", p) else (p, p ^ ".mv") in
      let* () = Router.rename (r c) ~src ~dst in
      true
    | Exec { c; k; n } ->
      let* code =
        Router.exec (r c) ~path:(job_path k) ~args:[ "job.exe"; string_of_int n; "x.out" ] ()
      in
      Hashtbl.replace st.last_exec
        (D.dir_path k ^ "/x.out")
        (D.principal D.cns.(c) ^ " " ^ string_of_int n);
      code = n mod 97
    | Dexec { c; k; n } ->
      let* code =
        Router.exec_delegated d.D.holder ~chain:d.D.chains.(c) ~path:(job_path k)
          ~args:[ "job.exe"; string_of_int n; "d.out" ] ()
      in
      (* The program runs under the root delegator's identity. *)
      Hashtbl.replace st.last_exec
        (D.dir_path k ^ "/d.out")
        (D.principal D.cns.(c) ^ " " ^ string_of_int n);
      code = n mod 97
  in
  expect st what res

(* After the measured phase: every file holds what was last put, and
   every exec output names the identity it must have run under. *)
let verify_writes st =
  let d = st.d in
  Array.iter
    (fun f ->
      match Router.get d.D.routers.(0) f.D.f_path with
      | Ok data when String.equal data f.D.f_data -> ()
      | Ok _ -> fail st ("final get " ^ f.D.f_path ^ ": wrong bytes")
      | Error e -> fail st ("final get " ^ f.D.f_path ^ ": " ^ Idbox_vfs.Errno.to_string e))
    d.D.files;
  Hashtbl.iter
    (fun path expected ->
      match Router.get d.D.routers.(0) path with
      | Ok data when String.equal data expected -> ()
      | Ok data -> fail st ("exec output " ^ path ^ ": " ^ data)
      | Error e -> fail st ("exec output " ^ path ^ ": " ^ Idbox_vfs.Errno.to_string e))
    st.last_exec
