module Metrics = Idbox_kernel.Metrics
module Server = Idbox_chirp.Server
module Wire = Idbox_chirp.Wire
module Revocations = Idbox_auth.Delegation.Revocations
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno

let replicas = 2

(* The root key, and the one place it is told apart from the others. *)
let root = "/"
let is_root k = String.equal k root

let key path = match Path.components path with [] -> root | c :: _ -> c

let owners ring k =
  if is_root k then Ring.nodes ring else Ring.successors ring k replicas

(* The root goes last: joining members get the root ACL after their
   shards' data.  An empty ring before has no root ACL to give them. *)
let moves ~before ~after keys =
  List.filter_map
    (fun k ->
      let old = owners before k in
      match List.filter (fun n -> not (List.mem n old)) (owners after k) with
      | [] -> None
      | gained -> Some (k, old, gained))
    (List.filter (fun k -> not (is_root k)) (List.sort_uniq String.compare keys)
    @ if Ring.is_empty before then [] else [ root ])

(* {1 Local state} *)

type holders = string -> Server.t list

let first holders k =
  match holders k with [] -> Error Errno.EHOSTUNREACH | s :: _ -> Ok s

let digest holders k =
  Result.bind (first holders k) (fun s ->
      if is_root k then
        match Server.snapshot_subtree ~recurse:false s root with
        | Ok (Server.Snap_dir { acl; _ } :: _) ->
          Ok (Digest.to_hex (Digest.string acl))
        | Ok _ -> Ok ""
        | Error e -> Error e
      else Server.subtree_digest s k)

let snapshot holders k =
  Result.bind (first holders k) (fun s ->
      Server.snapshot_subtree ~recurse:(not (is_root k)) s k)

(* Every holder gets the install; the first failure is the answer. *)
let on_each servers f =
  match servers with
  | [] -> Error Errno.EHOSTUNREACH
  | _ ->
    List.fold_left
      (fun acc s -> match (f s, acc) with Error e, Ok () -> Error e | _ -> acc)
      (Ok ()) servers

let install holders k entries =
  (* Only a shard key names a subtree to make exact: [""] would name
     the whole export. *)
  if not (String.equal (key k) k) then Error Errno.EINVAL
  else
    on_each (holders k) (fun s ->
        if is_root k then Server.install_snapshot s entries
        else Server.install_subtree_exact s ~prefix:k entries)

let entry_path = function
  | Server.Snap_dir { path; _ } | Server.Snap_file { path; _ } -> path

let adopt holders entries =
  let k = match entries with e :: _ -> key (entry_path e) | [] -> root in
  on_each (holders k) (fun s -> Server.install_snapshot s entries)

let roots servers =
  List.sort_uniq String.compare
    (List.concat_map
       (fun s -> match Server.shard_roots s with Ok ks -> ks | Error _ -> [])
       servers)

let keys holders = root :: roots (holders root)

(* {1 Requests} *)

let encode_entry = function
  | Server.Snap_dir { path; acl } -> Wire.encode [ "dir"; path; acl ]
  | Server.Snap_file { path; data } -> Wire.encode [ "file"; path; data ]

let decode_entry blob =
  match Wire.decode blob with
  | Ok [ "dir"; path; acl ] -> Ok (Server.Snap_dir { path; acl })
  | Ok [ "file"; path; data ] -> Ok (Server.Snap_file { path; data })
  | Ok _ -> Error "bad snapshot entry"
  | Error e -> Error e

let decode_entries blobs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | blob :: rest ->
      (match decode_entry blob with
       | Ok e -> go (e :: acc) rest
       | Error e -> Error e)
  in
  go [] blobs

let digest_request k =
  Wire.encode [ "digest"; k; (if is_root k then "acl" else "all") ]

let snapshot_request k =
  Wire.encode [ "snapshot"; k; (if is_root k then "dir" else "all") ]

let repair_request k entries =
  let blobs = List.map encode_entry entries in
  Wire.encode (if is_root k then "install" :: blobs else "repair" :: k :: blobs)

(* {1 Revocation epochs} *)

(* The servers' epochs, max-merged and sorted. *)
let epochs servers =
  let store = Revocations.create () in
  List.iter
    (fun s -> ignore (Revocations.merge store (Server.epoch_entries s)))
    servers;
  Revocations.entries store

let merge_epochs servers pairs =
  List.fold_left
    (fun grew s -> Server.merge_epochs s pairs || grew)
    false servers

let exchange_epochs holders call =
  let servers = holders root in
  match
    call (Wire.encode ("epochs" :: Revocations.to_fields (epochs servers)))
  with
  | Error e -> Error e
  | Ok reply ->
    (match Wire.decode reply with
     | Ok ("ok" :: fields) ->
       ignore (merge_epochs servers (Revocations.of_fields fields));
       Ok true
     | Ok _ | Error _ -> Ok false)

(* {1 The handler} *)

let ok fields = Wire.encode ("ok" :: fields)
let error e = Wire.encode [ "error"; Errno.to_string e ]
let reply = function Ok () -> ok [] | Error e -> error e

(* Each side computes (and vouches for) its own digest: a peer never
   has to trust shipped metadata about local state. *)
let answer metrics holders = function
  | "digest" :: k :: ([] | [ _ ]) ->
    (match digest holders k with
     | Ok d -> ok [ d ]
     | Error Errno.ENOENT -> ok [ "" ]  (* absent = empty *)
     | Error e -> error e)
  | "snapshot" :: k :: ([] | [ _ ]) ->
    (match snapshot holders k with
     | Ok entries -> ok (List.map encode_entry entries)
     | Error e -> error e)
  | "repair" :: k :: blobs ->
    (match decode_entries blobs with
     | Error _ -> error Errno.EINVAL
     | Ok entries -> reply (install holders k entries))
  | "install" :: blobs ->
    (match decode_entries blobs with
     | Error _ -> error Errno.EINVAL
     | Ok entries -> reply (adopt holders entries))
  | "epochs" :: fields ->
    let servers = holders root in
    if merge_epochs servers (Revocations.of_fields fields) then
      Metrics.incr (Metrics.counter metrics "cluster.revocation.merge");
    ok (Revocations.to_fields (epochs servers))
  | [ "roots" ] -> ok (roots (holders root))
  | _ -> error Errno.EINVAL
