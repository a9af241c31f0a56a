(* The two-region Chirp deployment behind chirp-read and chirp-write.

   [east] is the primary region (a 3-node World, 2 replicas per key),
   [west] a 2-node secondary World on the same simulated network; they
   are joined by [Geo.link] with the default 200 ms ship cadence on a
   calm network.  Both regions are populated identically with
   [Server.install_snapshot] on each key's replica set, which keeps
   set-up to seconds.  Clients Alice and Bob each hold a Router to east
   and a Geo reader in west; Carol holds a Router to east and is the
   holder of the 2-hop delegation chains (owner -> other client ->
   Carol). *)

module Clock = Idbox_kernel.Clock
module Program = Idbox_kernel.Program
module Libc = Idbox_kernel.Libc
module Network = Idbox_net.Network
module World = Idbox_cluster.World
module Geo = Idbox_cluster.Geo
module Router = Idbox_cluster.Router
module Ring = Idbox_cluster.Ring
module Server = Idbox_chirp.Server
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Errno = Idbox_vfs.Errno

type size = {
  dirs : int;  (** Reserved directories, one shard key each. *)
  files : int;  (** Data files per directory. *)
  min_bytes : int;
  max_bytes : int;  (** File sizes are log-uniform in [min, max]. *)
  ops : int;  (** Operations per pass. *)
  window : int;  (** Operations per timing window. *)
}

let cns = [| "Alice"; "Bob" |]
let holder_cn = "Carol"
let principal cn = World.principal_of cn
let program = "perfjob"

(* The staged program: writes "<identity> <n>" to the file named by its
   third argument, in its working directory, and exits [n mod 97]. *)
let register_program () =
  Program.register program (fun args ->
      match args with
      | [ _; n; out ] -> (
        match
          Libc.write_file out ~contents:(Libc.get_user_name () ^ " " ^ n)
        with
        | Ok () -> int_of_string n mod 97
        | Error _ -> 120)
      | _ -> 121)

type file = { f_path : string; mutable f_data : string }

type t = {
  clock : Clock.t;
  net : Network.t;
  geo : Geo.t;
  east : World.t;
  west : World.t;
  routers : Router.t array;  (** Alice, Bob. *)
  readers : Geo.reader array;  (** Alice, Bob, in west. *)
  holder : Router.t;  (** Carol. *)
  chains : Idbox_auth.Delegation.chain array;  (** Rooted at Alice, Bob. *)
  dir_paths : string array;
  files : file array;  (** Every data file, the shadow model's bytes. *)
  acls : string array;  (** Expected getacl text per directory. *)
  listings : string list array;  (** Expected sorted readdir per directory. *)
}

let owner_of_dir k = k mod 2
let dir_path k = Printf.sprintf "/d%02d" k

let dir_acl k =
  Acl.of_entries
    [
      Entry.make ~pattern:(principal cns.(owner_of_dir k)) (Rights.of_string_exn "rwlaxd");
      Entry.make ~pattern:"globus:/O=Grid/*" (Rights.of_string_exn "rl");
    ]

(* Deterministic file bytes: a header naming the path and version, then
   a slice of a seeded base block. *)
let contents ~base ~rng ~path ~version size =
  let head = Printf.sprintf "%s@%d:" path version in
  let body = max 0 (size - String.length head) in
  let off = Random.State.int rng (String.length base - body + 1) in
  head ^ String.sub base off body

let mk_world ~net ~ca ~region ~hosts ~repair_interval_ns =
  let w =
    World.create ~net ~ca
      ~catalog_addr:("catalog." ^ region ^ ".grid.edu:9097")
      ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L
      ~repair_interval_ns ()
  in
  List.iter
    (fun h ->
      match World.add_node w ~host:h with Ok () -> () | Error m -> failwith m)
    hosts;
  World.settle w;
  w

(* Install each directory's entries on its replica set: directories
   first, while the namespace is small, because every ACL install
   recompiles the policy bytecode over the whole namespace. *)
let populate w entries_of_dir ndirs =
  let ring = Ring.create (World.members w) in
  let per_member = Hashtbl.create 4 in
  for k = ndirs - 1 downto 0 do
    List.iter
      (fun m ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt per_member m) in
        Hashtbl.replace per_member m (entries_of_dir k @ prev))
      (Ring.successors ring (Printf.sprintf "d%02d" k) (World.replicas w))
  done;
  let install m entries =
    match Server.install_snapshot (World.server w m) entries with
    | Ok () -> ()
    | Error e -> failwith ("install_snapshot: " ^ Errno.message e)
  in
  let is_dir = function Server.Snap_dir _ -> true | Server.Snap_file _ -> false in
  List.iter
    (fun m ->
      match Hashtbl.find_opt per_member m with
      | None -> ()
      | Some entries ->
        let dirs, files = List.partition is_dir entries in
        install m dirs;
        install m files)
    (World.members w)

let okm = function Ok v -> v | Error m -> failwith m

let build ~size ~seed ~repair_interval_ns =
  register_program ();
  let rng = Harness.fixed_rng 0x5eed in
  let seeded = Harness.order_rng ~seed 0x5eed in
  (* File names do not depend on the seed: the policy compiler searches
     for a perfect hash of the namespace's names, so its cost, paid on
     every recompile, depends on the exact names (seeded names moved
     chirp-write's host time by 40 % between seeds).  The seed moves the
     link latency by up to 1 % instead, so every simulated latency is a
     measured value that differs between seeds. *)
  let names = Array.init size.dirs (fun _ -> Array.init size.files (Printf.sprintf "f%02d")) in
  let base = String.init (size.max_bytes * 2) (fun _ -> Char.chr (32 + Random.State.int rng 95)) in
  let clock = Clock.create () in
  let net = Network.create ~clock ~latency_us:(99.5 +. Random.State.float seeded 1.) () in
  let ca = Idbox_auth.Ca.create ~name:"Grid CA" in
  let east =
    mk_world ~net ~ca ~region:"east" ~hosts:[ "ea.grid.edu"; "eb.grid.edu"; "ec.grid.edu" ]
      ~repair_interval_ns
  in
  let west =
    mk_world ~net ~ca ~region:"west" ~hosts:[ "wa.grid.edu"; "wb.grid.edu" ]
      ~repair_interval_ns
  in
  let sizes = Harness.log_uniform_sizes rng (size.dirs * size.files) size.min_bytes size.max_bytes in
  let files =
    Array.init (size.dirs * size.files) (fun i ->
        let k = i / size.files and j = i mod size.files in
        let path = Printf.sprintf "/d%02d/%s" k names.(k).(j) in
        { f_path = path;
          f_data = contents ~base ~rng ~path ~version:0 (min size.max_bytes (Harness.jitter seeded sizes.(i))) })
  in
  let acls = Array.init size.dirs (fun k -> Acl.to_string (dir_acl k)) in
  let entries_of_dir k =
    (Server.Snap_dir { path = dir_path k; acl = acls.(k) }
    :: Server.Snap_file
         { path = dir_path k ^ "/job.exe"; data = Program.marker program }
    :: List.init size.files (fun j ->
           let f = files.((k * size.files) + j) in
           Server.Snap_file { path = f.f_path; data = f.f_data }))
  in
  populate east entries_of_dir size.dirs;
  populate west entries_of_dir size.dirs;
  let geo = Geo.link ~primary:"east" net [ ("east", east); ("west", west) ] in
  Geo.ship_now geo;
  let routers =
    Array.map (fun cn -> okm (World.connect east ~credentials:[ World.issue east cn ])) cns
  in
  let readers =
    Array.map
      (fun cn -> okm (Geo.connect geo ~region:"west" ~credentials:[ World.issue west cn ] ()))
      cns
  in
  let holder = okm (World.connect east ~credentials:[ World.issue east holder_cn ]) in
  let far = 1_000_000_000_000_000L in
  let chains =
    Array.mapi
      (fun c cn ->
        let other = cns.(1 - c) in
        [
          World.delegate ~ttl_ns:far east ~delegator:cn ~delegatee:other
            ~rights:(Rights.of_string_exn "rlx") ~prefix:"/" ();
          World.delegate ~ttl_ns:far east ~delegator:other ~delegatee:holder_cn
            ~rights:(Rights.of_string_exn "rlx") ~prefix:"/" ();
        ])
      cns
  in
  let listings =
    Array.map (fun a -> List.sort compare ("job.exe" :: Array.to_list a)) names
  in
  {
    clock; net; geo; east; west; routers; readers; holder; chains;
    dir_paths = Array.init size.dirs dir_path;
    files; acls; listings;
  }

(* {1 Housekeeping} *)

let tick t =
  Spans.span Spans.World_tick (fun () ->
      World.tick t.east;
      World.tick t.west);
  Spans.span Spans.Geo_tick (fun () -> Geo.tick t.geo)

let servers t =
  List.map (World.server t.east) (World.members t.east)
  @ List.map (World.server t.west) (World.members t.west)

let kernels t = [ World.kernel t.east; World.kernel t.west ]

(* Re-register each member's listener as a timing wrapper around
   [Server.handle] (the handler [Server.create] registers); [capture]
   sees each raw request and response. *)
let wrap_servers t ~capture =
  List.iter
    (fun s ->
      Network.listen t.net ~addr:(Server.addr s) (fun req ->
          let resp = Spans.span Spans.Server_handle (fun () -> Server.handle s req) in
          capture s req resp;
          resp))
    (servers t)

(* Busy time of every endpoint so far. *)
let busy t =
  List.map (fun a -> (a, Network.busy_ns t.net ~addr:a)) (Network.addresses t.net)

let busiest_delta before after =
  List.fold_left
    (fun acc (a, b1) ->
      let b0 = Option.value ~default:0L (List.assoc_opt a before) in
      max acc (Int64.sub b1 b0))
    0L after

(* Busy time of the replication endpoints ([Replica]'s "#repl"
   listeners), summed. *)
let replica_delta before after =
  List.fold_left
    (fun acc (a, b1) ->
      if String.ends_with ~suffix:"#repl" a then
        Int64.add acc (Int64.sub b1 (Option.value ~default:0L (List.assoc_opt a before)))
      else acc)
    0L after

(* Ship everything pending, so both regions describe the same history
   when the witnesses are read. *)
let witness t =
  Geo.ship_now t.geo;
  {
    Harness.w_entries =
      List.map (fun k -> Harness.count_entries (Idbox_kernel.Kernel.fs k)) (kernels t);
    w_sessions = List.fold_left (fun acc s -> acc + Server.session_count s) 0 (servers t);
    w_procs = List.fold_left (fun acc k -> acc + Harness.live_processes k) 0 (kernels t);
    w_heap_words = Harness.major_heap_words ();
  }
