module Kernel = Idbox_kernel.Kernel
module View = Idbox_kernel.View
module Syscall = Idbox_kernel.Syscall
module Network = Idbox_net.Network
module Negotiate = Idbox_auth.Negotiate
module Delegation = Idbox_auth.Delegation
module Principal = Idbox_identity.Principal
module Acl = Idbox_acl.Acl
module Rights = Idbox_acl.Rights
module Enforce = Idbox.Enforce
module Audit = Idbox.Audit
module Box = Idbox.Box
module Rights_table = Idbox.Rights_table
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno
module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode

type session = {
  ss_principal : Principal.t;
  ss_method : string;
  mutable ss_last_used : int64;
}

(* A completed non-idempotent operation, remembered for the dedup
   window: a retry carrying the same request ID gets this response back
   instead of a second execution. *)
type done_op = {
  dd_at : int64;
  dd_response : string;  (* already encoded for the wire *)
}

(* The dedup journal's eviction order: (time, request id), oldest
   first.  Entries join out of time order — a parked mutation is
   journaled at flush under its admission time, after reads admitted
   later — so this is an ordered set rather than a FIFO: its minimum is
   always the next entry to expire. *)
module Dedup_order = Set.Make (struct
  type t = int64 * string

  let compare (a, x) (b, y) =
    match Int64.compare a b with 0 -> String.compare x y | c -> c
end)

(* A memoized per-directory digest, revalidated by the directory's
   (ino, generation) token: namespace changes, ACL writes and content
   writes all bump the directory generation, so a stale digest can
   never validate. *)
type digest_memo = {
  dg_token : int * int;
  dg_local : string;  (* digest over ACL text + direct children *)
  dg_subdirs : string list;  (* absolute child-directory paths, sorted *)
}

(* A logged mutation on its way to [commit]: a client's, parked until
   the next batch flush, or one built by [apply] or [restart].  The
   principal is copied out of the session at admission: the operation
   was authorized then, so it executes even if the session expires (or
   is swept) while parked — and slot accounting stays with the session
   table alone, so a mid-batch expiry can never double-release.
   [pk_reply] gets the response and its encoding on demand; a retry of
   a parked request is chained onto it. *)
type parked = {
  pk_principal : Principal.t;
  pk_op : Protocol.operation;
  pk_req_id : string;  (* the dedup journal's key; "" for none *)
  pk_now : int64;  (* admission time: the dedup timestamp *)
  mutable pk_reply : Protocol.response -> string Lazy.t -> unit;
}

type t = {
  sv_kernel : Kernel.t;
  (* Counter handles, interned on first use: by name, and by operation
     name for [chirp.rpc.<op>]. *)
  sv_counters : Idbox_kernel.Metrics.handles;
  sv_rpc_counters : Idbox_kernel.Metrics.handles;
  sv_net : Network.t;
  sv_addr : string;
  sv_owner : View.t;
  sv_export : string;
  acceptor : Negotiate.acceptor;
  enforce : Enforce.t;
  mutable sv_revocations : Delegation.Revocations.t;
  sv_audit : Audit.t;
  sessions : (string, session) Hashtbl.t;
  dedup : (string, done_op) Hashtbl.t;
  mutable dedup_order : Dedup_order.t;  (* [dedup]'s entries by [dd_at] *)
  max_sessions : int;
  max_parked : int;  (* admission bound on the parked-mutation queue *)
  session_idle_ns : int64;
  boxes : (string, Box.t) Hashtbl.t;
  wal : Wal.t;
  checkpoint_every : int;
  digests : (string, digest_memo) Hashtbl.t;
  sv_flush_ns : int64;  (* flush delay after the first parked op; 0 = at once *)
  sv_flush_limit : int;  (* max ops drained per batch tick (the drain rate) *)
  pending_q : parked Queue.t;
  parked_ids : (string, parked) Hashtbl.t;  (* req_id -> parked entry *)
  mutable flush_armed : bool;
  mutable sv_brownout : bool;  (* overload mode: shed mutations, serve reads *)
  mutable committing : bool;  (* a [commit] is running (a hook may pump the loop) *)
  mutable checkpoint_due : bool;  (* asked for while [committing] *)
  mutable ops_since_ckpt : int;
  mutable execs : int;
  mutable token_counter : int;
  mutable mutation_hook :
    (identity:Principal.t -> Protocol.operation -> unit) option;
  mutable geo_hook :
    (identity:Principal.t -> Protocol.operation -> unit) option;
}

let addr t = t.sv_addr
let export t = t.sv_export
let revocations t = t.sv_revocations
let audit t = t.sv_audit
let owner_uid t = t.sv_owner.View.uid
let exec_count t = t.execs
let session_count t = Hashtbl.length t.sessions
let dedup_size t = Hashtbl.length t.dedup
let parked_ops t = Queue.length t.pending_q
let brownout t = t.sv_brownout

let dedup_entries t =
  Hashtbl.fold (fun rid d acc -> (rid, d.dd_at) :: acc) t.dedup []
  |> List.sort compare

let sessions t =
  Hashtbl.fold
    (fun _ s acc -> (Principal.to_string s.ss_principal, s.ss_method) :: acc)
    t.sessions []
  |> List.sort compare

let delegate t req = Kernel.delegate t.sv_kernel t.sv_owner req

let metric t name =
  Idbox_kernel.Metrics.incr (Idbox_kernel.Metrics.handle t.sv_counters name)

let metric_add t name n =
  if n > 0 then
    Idbox_kernel.Metrics.add (Idbox_kernel.Metrics.handle t.sv_counters name) n

let cost t = Kernel.cost t.sv_kernel
let charge t ns = Kernel.charge t.sv_kernel ns

(* {1 Write-ahead logging}

   The log holds one record type.  An [Op] is appended, and synced,
   before its mutation executes; a [Done] is the dedup-journal entry of
   a mutation that carries a request id, appended and synced before the
   response leaves.  [restart] rebuilds the whole server state from the
   checkpoint image plus these records — nothing else survives a
   crash. *)

type record =
  | Op of { identity : Principal.t; op : Protocol.operation }
  | Done of { req_id : string; at : int64; response : string }

let encode_record = function
  | Op { identity; op } ->
    Wire.encode
      [ "op"; Principal.to_string identity; Protocol.operation_to_wire op ]
  | Done { req_id; at; response } ->
    Wire.encode [ "done"; req_id; Int64.to_string at; response ]

(* Total: a record that does not decode is [None], never an exception. *)
let decode_record blob =
  match Wire.decode blob with
  | Ok [ "op"; identity; op ] ->
    (match Protocol.operation_of_wire op with
     | Ok op -> Some (Op { identity = Principal.of_string identity; op })
     | Error _ -> None)
  | Ok [ "done"; req_id; at; response ] ->
    Option.map (fun at -> Done { req_id; at; response }) (Int64.of_string_opt at)
  | Ok _ | Error _ -> None

let log t record =
  let blob = encode_record record in
  Wal.append t.wal blob;
  t.ops_since_ckpt <- t.ops_since_ckpt + 1;
  metric t "chirp.wal.append";
  charge t
    (Int64.add (cost t).Idbox_kernel.Cost.wal_append_ns
       (Idbox_kernel.Cost.copy_bytes (cost t) (String.length blob)))

let wal_sync t =
  Wal.sync t.wal;
  metric t "chirp.wal.sync";
  charge t (cost t).Idbox_kernel.Cost.wal_sync_ns

let rec contains_exec = function
  | Protocol.Exec _ -> true
  | Protocol.Batch ops -> List.exists contains_exec ops
  | Protocol.Delegated { op; _ } -> contains_exec op
  | _ -> false

(* Map a wire path into the export subtree, rejecting escapes.  Wire
   paths are absolute within the server's virtual namespace, so they are
   anchored under the export root (never substituted for it), and ".."
   may not climb out.  An absolute wire path brings its own '/': joined
   without a second one, the common path is already normal. *)
let map_path t wire_path =
  let joined =
    if String.starts_with ~prefix:"/" wire_path then t.sv_export ^ wire_path
    else t.sv_export ^ "/" ^ wire_path
  in
  let abs =
    (* Ancestor symlinks (e.g. planted by a remotely exec'd job) are
       resolved before the prefix check, so a link pointing out of the
       export tree cannot smuggle operations outside it. *)
    Enforce.canonical_parents t.enforce (Path.normalize joined)
  in
  if Path.is_prefix ~prefix:t.sv_export abs then Ok abs else Error Errno.EACCES

let err e = Protocol.R_error (e, Errno.message e)

let with_path t wire_path k =
  match map_path t wire_path with Ok abs -> k abs | Error e -> err e

(* The authority an operation runs under.  A directly authenticated
   session holds its principal's full authority within the export; a
   delegated operation runs as the chain's {e root} delegator,
   attenuated to the chain's intersected grant mask and narrowest
   path-prefix scope (absolute, export-anchored).  The rights table
   checks the grant and scope with every question it asks, so a
   delegated caller can never do what the delegator could not. *)
let caller_of t identity =
  {
    Rights_table.identity;
    limit = Some { Rights_table.grant = Rights.full; scope = t.sv_export };
  }

let answer reply = function Ok v -> reply v | Error e -> err e
let ok _ = Protocol.R_ok

let authorized t caller row paths k =
  answer k (Rights_table.authorize t.enforce caller row paths)

let box_for t identity =
  let key = Principal.to_string identity in
  match Hashtbl.find_opt t.boxes key with
  | Some box -> Ok box
  | None ->
    (match
       Box.create t.sv_kernel ~supervisor_uid:t.sv_owner.View.uid ~identity ()
     with
     | Ok box ->
       Hashtbl.replace t.boxes key box;
       Ok box
     | Error e -> Error e)

let wire_stat_of (st : Fs.stat) =
  {
    Protocol.ws_kind =
      (match st.Fs.st_kind with
       | Inode.Regular | Inode.Fifo -> "file"
       | Inode.Directory -> "dir"
       | Inode.Symlink -> "link");
    ws_size = st.Fs.st_size;
    ws_mtime = st.Fs.st_mtime;
  }

let rec serve_as t caller op =
  let open Protocol in
  Idbox_kernel.Metrics.incr
    (Idbox_kernel.Metrics.handle t.sv_rpc_counters (Protocol.operation_name op));
  match op with
  | Batch ops ->
    (* The decoder already refuses nested batches on the wire; re-check
       here for directly constructed operations (replication applies). *)
    if
      List.exists
        (function Batch _ | Delegated _ -> true | _ -> false)
        ops
    then err Errno.EINVAL
    else
      (* In order, one envelope: each member is served exactly as if it
         had arrived alone (per-op metrics included), but the round trip
         and checksum are paid once. *)
      R_batch (List.map (fun op -> serve_as t caller op) ops)
  | Whoami -> R_str (Principal.to_string caller.Rights_table.identity)
  | Epoch who ->
    R_str (string_of_int (Delegation.Revocations.epoch t.sv_revocations who))
  | Revoke who ->
    (* Only the delegator retires their own chains: revocation is an
       assertion about tokens [who] minted, so only [who] may make it. *)
    if not (String.equal (Principal.to_string caller.Rights_table.identity) who) then
      err Errno.EACCES
    else begin
      let epoch = Delegation.Revocations.revoke t.sv_revocations who in
      metric t "chirp.revocation.apply";
      R_str (string_of_int epoch)
    end
  | Delegated { chain; op = inner } -> serve_delegated t caller chain inner
  | Mkdir wire_path ->
    with_path t wire_path (fun abs ->
        answer ok
          (Rights_table.mkdir t.enforce caller ~delegate:(delegate t) abs ~mode:0o755))
  | Rmdir wire_path ->
    with_path t wire_path (fun abs ->
        if String.equal abs t.sv_export then err Errno.EACCES
        else answer ok (Rights_table.rmdir t.enforce caller ~delegate:(delegate t) abs))
  | Unlink wire_path ->
    with_path t wire_path (fun abs ->
        authorized t caller Rights_table.unlink [ abs ] (fun () ->
            answer ok (delegate t (Syscall.Unlink abs))))
  | Put { path = wire_path; data } ->
    with_path t wire_path (fun abs ->
        authorized t caller Rights_table.write [ abs ] (fun () ->
            let flags = Fs.wronly_create in
            match delegate t (Syscall.Open { path = abs; flags; mode = 0o755 }) with
            | Error e -> err e
            | Ok (Syscall.Int fd) ->
              let res = delegate t (Syscall.Write { fd; data }) in
              ignore (delegate t (Syscall.Close fd));
              (match res with Ok _ -> R_ok | Error e -> err e)
            | Ok _ -> err Errno.EINVAL))
  | Get wire_path ->
    with_path t wire_path (fun abs ->
        authorized t caller Rights_table.read [ abs ] (fun () ->
            match delegate t (Syscall.Open { path = abs; flags = Fs.rdonly; mode = 0 }) with
            | Error e -> err e
            | Ok (Syscall.Int fd) ->
              let res = Kernel.read_to_end (delegate t) fd ~chunk:65536 in
              ignore (delegate t (Syscall.Close fd));
              (match res with Ok data -> R_data data | Error e -> err e)
            | Ok _ -> err Errno.EINVAL))
  | Stat wire_path ->
    with_path t wire_path (fun abs ->
        authorized t caller Rights_table.stat [ abs ] (fun () ->
            match delegate t (Syscall.Stat abs) with
            | Ok (Syscall.Stat_v st) -> R_stat (wire_stat_of st)
            | Ok _ -> err Errno.EINVAL
            | Error e -> err e))
  | Readdir wire_path ->
    with_path t wire_path (fun abs ->
        answer
          (fun names -> R_names names)
          (Rights_table.readdir t.enforce caller ~delegate:(delegate t) abs))
  | Getacl wire_path ->
    with_path t wire_path (fun abs ->
        answer
          (fun text -> R_str text)
          (Rights_table.getacl t.enforce caller ~delegate:(delegate t) abs))
  | Setacl { path = wire_path; entry } ->
    with_path t wire_path (fun abs ->
        answer ok (Rights_table.setacl t.enforce caller abs ~entry))
  | Rename { src; dst } ->
    (match (map_path t src, map_path t dst) with
     | Error e, _ | _, Error e -> err e
     | Ok asrc, Ok adst ->
       authorized t caller Rights_table.rename [ asrc; adst ] (fun () ->
           answer ok (delegate t (Syscall.Rename { src = asrc; dst = adst }))))
  | Checksum wire_path ->
    with_path t wire_path (fun abs ->
        authorized t caller Rights_table.read [ abs ] (fun () ->
            (* The digest is computed server-side over the stored bytes:
               one metadata-sized reply instead of re-fetching the file. *)
            match Fs.digest_file (Kernel.fs t.sv_kernel) ~uid:t.sv_owner.View.uid abs with
            | Ok digest ->
              (* Charge the server's sequential read of the file. *)
              ignore
                (Kernel.delegate t.sv_kernel t.sv_owner
                   (Syscall.Stat abs));
              R_str (Digest.to_hex digest)
            | Error e -> err e))
  | Exec { path = wire_path; args; cwd } ->
    (match (map_path t wire_path, map_path t cwd) with
     | Error e, _ | _, Error e -> err e
     | Ok abs, Ok acwd ->
       (* The delegation gate: a delegated caller must hold the execute
          right in the chain's grant and the program must sit inside the
          chain's scope.  The box's own ACL question (as the principal)
          is asked inside [Box.spawn]. *)
       if not (Rights_table.permits t.enforce caller Rights_table.execute [ abs ])
       then err Errno.EACCES
       else
         (match box_for t caller.Rights_table.identity with
          | Error e -> err e
          | Ok box ->
            (match Box.spawn box ~check_exec:true ~path:abs ~args () with
             | Error e -> err e
             | Ok pid ->
               t.execs <- t.execs + 1;
               Box.set_cwd box ~pid acwd;
               (* Drive the host to completion: the remote process runs
                  inside the identity box on the server's machine. *)
               Kernel.run t.sv_kernel;
               let code = Kernel.exit_code t.sv_kernel pid in
               Kernel.release t.sv_kernel pid;
               (match code with
                | Some code -> R_exit code
                | None -> err Errno.EAGAIN))))

(* A delegated operation: validate the chain presented by the
   authenticated session principal (the holder), then run the inner
   operation as the chain's {e root} delegator under the attenuated
   grant and scope.  Only [Exec] and read-only operations are accepted:
   a delegated mutation would land in the WAL and re-validate its chain
   at {e replay} time — after the tokens may have expired — and
   diverge; exec records are checkpoint-truncated immediately, so they
   never replay at all. *)
and serve_delegated t caller chain inner =
  let open Protocol in
  let now = Kernel.now t.sv_kernel in
  let holder = Principal.to_string caller.Rights_table.identity in
  (* Exec, or one operation that changes nothing: what admission counts
     as read-only ([Protocol.idempotent]), alone. *)
  let inner_ok =
    match inner with
    | Exec _ -> true
    | Batch _ | Delegated _ -> false
    | op -> Protocol.idempotent op
  in
  (* A caller already running under a chain cannot present another one:
     re-delegation happens by extending the chain, not by nesting. *)
  let undelegated =
    match caller.Rights_table.limit with
    | Some { Rights_table.grant; _ } -> Rights.equal grant Rights.full
    | None -> true
  in
  if (not inner_ok) || not undelegated then err Errno.EINVAL
  else
    match
      Enforce.admit_chain t.enforce
        ~trusted:(Negotiate.trusted_cas t.acceptor)
        ~revocations:t.sv_revocations ~now ~holder chain
    with
    | Error failure ->
      Audit.record t.sv_audit ~time:now ~pid:0 ~identity:holder ~op:"delegated"
        ~path:(Protocol.operation_path inner)
        (Audit.Denied Errno.EACCES);
      Protocol.R_error (Errno.EACCES, Delegation.failure_message failure)
    | Ok s ->
      (match map_path t s.Delegation.sum_prefix with
       | Error e -> err e
       | Ok scope ->
         (* Every hop on the record: who handed authority to whom, over
            which scope — the per-hop forensic trail. *)
         List.iter
           (fun tok ->
             Audit.record t.sv_audit ~time:now ~pid:0
               ~identity:tok.Delegation.dg_delegator ~op:"delegate"
               ~path:tok.Delegation.dg_prefix
               ~path2:tok.Delegation.dg_delegatee Audit.Allowed)
           chain;
         let delegated =
           {
             Rights_table.identity = Principal.of_string s.Delegation.sum_root;
             limit = Some { Rights_table.grant = s.Delegation.sum_grant; scope };
           }
         in
         let r = serve_as t delegated inner in
         (match (inner, r) with
          | Exec _, R_exit _ -> metric t "chirp.delegated_exec"
          | _ -> ());
         Audit.record t.sv_audit ~time:now ~pid:0 ~identity:s.Delegation.sum_root
           ~op:("delegated." ^ Protocol.operation_name inner)
           ~path:(Protocol.operation_path inner)
           (match r with
            | Protocol.R_error (e, _) -> Audit.Denied e
            | _ -> Audit.Allowed);
         r)

(* Direct (non-delegated) service: the session principal's own, full
   authority. *)
let serve_op t identity op = serve_as t (caller_of t identity) op

(* {1 Subtree snapshots}

   Used by replication (rebalance migration), by checkpoints, and by
   anti-entropy repair.  Paths in the result are wire paths (relative
   to the export root) so a receiving server can anchor them under its
   own export. *)

type snapshot_entry =
  | Snap_dir of { path : string; acl : string }
  | Snap_file of { path : string; data : string }

let snapshot_path = function
  | Snap_dir { path; _ } -> path
  | Snap_file { path; _ } -> path

(* Ship a subtree, ACLs included, as the deploying owner. *)
(* The wire path of an absolute path inside the export. *)
let to_wire t abs =
  match Path.strip_prefix ~prefix:t.sv_export abs with
  | Some rel -> rel
  | None -> "/"

let snapshot_subtree ?(recurse = true) t wire_prefix =
  metric t "chirp.repl.snapshot";
  let to_wire = to_wire t in
  let rec walk abs acc =
    match delegate t (Syscall.Stat abs) with
    | Error Errno.ENOENT -> Ok acc  (* nothing under this prefix here *)
    | Error e -> Error e
    | Ok (Syscall.Stat_v st) when st.Fs.st_kind = Inode.Directory ->
      let acl =
        match Enforce.dir_acl t.enforce abs with
        | Some acl -> Acl.to_string acl
        | None -> ""
      in
      let acc = Snap_dir { path = to_wire abs; acl } :: acc in
      if not recurse then Ok acc
      else
        (match delegate t (Syscall.Readdir abs) with
       | Error e -> Error e
       | Ok (Syscall.Names names) ->
         List.fold_left
           (fun acc name ->
             match acc with
             | Error _ -> acc
             | Ok acc -> walk (Path.join abs name) acc)
           (Ok acc)
           (List.sort String.compare (Rights_table.visible names))
       | Ok _ -> Error Errno.EINVAL)
    | Ok (Syscall.Stat_v _) ->
      (match Fs.read_file (Kernel.fs t.sv_kernel) ~uid:t.sv_owner.View.uid abs with
       | Ok data -> Ok (Snap_file { path = to_wire abs; data } :: acc)
       | Error e -> Error e)
    | Ok _ -> Error Errno.EINVAL
  in
  match map_path t wire_prefix with
  | Error e -> Error e
  | Ok abs -> Result.map List.rev (walk abs [])

(* Install entries as the owner, without checkpointing — shared by the
   public snapshot install and by recovery (which must not truncate the
   log it is replaying). *)
let install_entries t entries =
  let uid = t.sv_owner.View.uid in
  let fs = Kernel.fs t.sv_kernel in
  let install entry =
    match map_path t (snapshot_path entry) with
    | Error e -> Error e
    | Ok abs ->
      (match entry with
       | Snap_dir { acl; _ } ->
         (match Fs.mkdir_p fs ~uid abs with
          | Error e -> Error e
          | Ok () ->
            if String.equal acl "" then Ok ()
            else
              (match Acl.of_string acl with
               | Error _ -> Error Errno.EINVAL
               | Ok parsed -> Enforce.write_acl t.enforce ~dir:abs parsed))
       | Snap_file { data; _ } ->
         Fs.write_file fs ~uid ~mode:0o755 abs data)
  in
  List.fold_left
    (fun acc entry -> match acc with Error _ -> acc | Ok () -> install entry)
    (Ok ()) entries

(* {1 Checkpoints}

   A checkpoint is one atomic image on the WAL device: the dedup
   journal plus a full subtree snapshot of the export.  Taking one
   truncates the log, bounding replay time.  The image holds executed
   mutations only, so two rules keep every logged one on the device:
   a checkpoint asked for while a commit runs waits for the outermost
   commit to end (batch members popped from the queue have not run
   yet), and the ["op"] records of mutations still parked are logged
   again after the image, in queue order, without counting toward the
   next checkpoint. *)

let snap_encode = function
  | Snap_dir { path; acl } -> Wire.encode [ "d"; path; acl ]
  | Snap_file { path; data } -> Wire.encode [ "f"; path; data ]

let snap_decode blob =
  match Wire.decode blob with
  | Ok [ "d"; path; acl ] -> Some (Snap_dir { path; acl })
  | Ok [ "f"; path; data ] -> Some (Snap_file { path; data })
  | Ok _ | Error _ -> None

let dedup_image t =
  Hashtbl.fold
    (fun rid d acc -> (rid, d) :: acc)
    t.dedup []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.concat_map (fun (rid, d) ->
         [ rid; Int64.to_string d.dd_at; d.dd_response ])
  |> Wire.encode

(* Revocation epochs ride the checkpoint as a pseudo-entry: an old
   decoder's [snap_decode] returns [None] for it (so it is skipped
   harmlessly), while [restart] scans for it explicitly. *)
let revocation_image t =
  Wire.encode
    ("revocations"
    :: Delegation.Revocations.(to_fields (entries t.sv_revocations)))

let take_checkpoint t =
  if t.committing then begin
    t.checkpoint_due <- true;
    Ok ()
  end
  else
    match snapshot_subtree t "/" with
    | Error e -> Error e
    | Ok entries ->
      let blob =
        Wire.encode
          (dedup_image t :: revocation_image t :: List.map snap_encode entries)
      in
      Wal.checkpoint t.wal blob;
      t.checkpoint_due <- false;
      metric t "chirp.checkpoint";
      charge t
        (Int64.mul
           (Int64.of_int (List.length entries))
           (cost t).Idbox_kernel.Cost.checkpoint_entry_ns);
      Queue.iter
        (fun pk -> log t (Op { identity = pk.pk_principal; op = pk.pk_op }))
        t.pending_q;
      (* No checkpoint takes the log below the parked set: counting
         those records would checkpoint every batch while the backlog
         holds [checkpoint_every] of them. *)
      t.ops_since_ckpt <- 0;
      Ok ()

let fresh_token t principal =
  t.token_counter <- t.token_counter + 1;
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%s" t.sv_addr t.token_counter
          (Principal.to_string principal)))

(* Expire sessions idle past the window — including half-authenticated
   leftovers whose auth response was lost in flight and that no client
   will ever speak for again. *)
let sweep_sessions t now =
  let dead =
    Hashtbl.fold
      (fun token s acc ->
        if Int64.sub now s.ss_last_used > t.session_idle_ns then token :: acc
        else acc)
      t.sessions []
  in
  List.iter
    (fun token ->
      metric t "chirp.session.expired";
      Hashtbl.remove t.sessions token)
    dead

(* Record a completed request in the dedup journal, keeping
   [dedup_order] an exact index of it: a replaced entry leaves the
   order under its old time. *)
let journal t rid d =
  (match Hashtbl.find_opt t.dedup rid with
   | Some old ->
     t.dedup_order <- Dedup_order.remove (old.dd_at, rid) t.dedup_order
   | None -> ());
  Hashtbl.replace t.dedup rid d;
  t.dedup_order <- Dedup_order.add (d.dd_at, rid) t.dedup_order

(* How long the dedup journal remembers a completed request: 60 s. *)
let dedup_window_ns = 60_000_000_000L

(* The dedup journal is bounded by age: entries older than the dedup
   window can no longer match any live retry (clients give up long
   before), so each admission evicts them — a long-lived session's
   journal stays proportional to its recent write rate, not its
   lifetime.  Eviction pops the oldest entries only, so a sweep with
   nothing to evict costs one look at the minimum, not a scan. *)
let rec sweep_dedup t now =
  match Dedup_order.min_elt_opt t.dedup_order with
  | Some ((at, rid) as oldest) when Int64.sub now at > dedup_window_ns ->
    t.dedup_order <- Dedup_order.remove oldest t.dedup_order;
    Hashtbl.remove t.dedup rid;
    metric t "chirp.dedup_evictions";
    sweep_dedup t now
  | Some _ | None -> ()

(* The recorded response for [req_id], if the journal still holds it. *)
let recorded t ~now req_id =
  sweep_dedup t now;
  Option.map (fun d -> d.dd_response) (Hashtbl.find_opt t.dedup req_id)

(* {1 Admission control}

   The parked-mutation queue is bounded ([max_parked]), and overload is
   answered with a {e brownout} rather than silent queueing: when the
   queue climbs past the high watermark (3/4 of the bound) the server
   enters brownout and sheds every fresh mutation with [EAGAIN] plus a
   machine-readable retry-after hint; reads, auth, dedup replays and
   already-parked retries are still served — reads are admitted before
   mutations, always.  Brownout exits only once the queue has drained
   below the low watermark (1/4), so admission does not flap at the
   threshold.  Session-table-full sheds carry the same hint. *)

let queue_high t = t.max_parked * 3 / 4
let queue_low t = t.max_parked / 4

let update_brownout t =
  let q = Queue.length t.pending_q in
  if (not t.sv_brownout) && q >= queue_high t then begin
    t.sv_brownout <- true;
    metric t "chirp.brownout.enter"
  end
  else if t.sv_brownout && q <= queue_low t then begin
    t.sv_brownout <- false;
    metric t "chirp.brownout.exit"
  end

(* When may a shed client plausibly be admitted?  The batch tick drains
   the whole queue, so two ticks out the backlog that caused the shed is
   gone; session sheds wait on idle expiry, bounded at a second so
   clients keep probing. *)
let shed_retry_after t = Int64.mul t.sv_flush_ns 2L

let session_retry_after t =
  Int64.min (Int64.div t.session_idle_ns 8L) 1_000_000_000L

let shed_session_error t =
  metric t "chirp.session.reject";
  metric t "chirp.shed.session";
  Protocol.R_error
    ( Errno.EAGAIN,
      Protocol.shed_message ~retry_after_ns:(session_retry_after t)
        "session table full" )

(* {1 The apply path}

   [commit] executes every logged mutation: a client batch (its [Op]
   records appended at admission), a peer forward or a geo shipment
   ({!apply}), and a replay in [restart].  The origin decides three
   things only: whether the hooks fire (a client's or a shipped
   mutation is fresh in this region, a peer forward must not be
   forwarded again, and a replay fired them before the crash), whether
   the dedup journal keys the record (the item's [pk_req_id]), and, for
   a replay, that nothing is logged again. *)

type remote = Peer | Shipped of string
type origin = Client | Remote of remote | Replay
type applied = Applied of Protocol.response | Replayed of string

(* The replication hooks see fresh successful mutations only, so a
   retried write replicates once.  A hook runs inside the request so the
   fan-out is deterministic, but its failures are its own. *)
let fire_hooks t ~identity op r =
  let fire op r =
    match r with
    | Protocol.R_error _ -> ()
    | _ when Protocol.idempotent op -> ()
    | _ ->
      (match t.mutation_hook with
       | None -> ()
       | Some hook ->
         (try hook ~identity op
          with _ -> metric t "chirp.repl.hook_crash"));
      (* The geo hook sees the same fresh successful mutations the
         replication hook does — installed only on the current primary
         region's members, so a shipped mutation applied in a secondary
         fans out intra-region but never echoes back over the WAN. *)
      (match t.geo_hook with
       | None -> ()
       | Some hook ->
         (try hook ~identity op
          with _ -> metric t "chirp.geo.hook_crash"))
  in
  match (op, r) with
  | Protocol.Batch ops, Protocol.R_batch rs
    when List.length ops = List.length rs ->
    (* Per member: replicas receive plain operations, exactly as for
       singles, and failed members do not replicate. *)
    List.iter2 fire ops rs
  | _ -> fire op r

(* A handler bug must not unwind into the network.  A replay's crash
   is not [counted]: it was when the record first executed. *)
let serve_contained t ~counted identity op =
  try serve_op t identity op
  with _ ->
    if counted then metric t "chirp.handler.crash";
    Protocol.R_error (Errno.EIO, "internal server error")

(* Execute a batch of logged mutations in order, with crash
   containment, answering each once its [Done] record (if keyed) is
   synced.  Unless it is a replay: one sync before any of them runs,
   and the checkpoint rule after the replies (the checkpoint itself is
   taken when the outermost commit ends) — right after an exec,
   because a replay would run the program again and truncating the exec
   record away is what keeps remote execution exactly-once (the journal
   inside the checkpoint still answers retries), or once the log holds
   [checkpoint_every] records. *)
let execute t origin items =
  let logged = match origin with Replay -> false | Client | Remote _ -> true in
  if logged then wal_sync t;
  let served =
    List.map
      (fun pk ->
        let r = serve_contained t ~counted:logged pk.pk_principal pk.pk_op in
        (match origin with
         | Client | Remote (Shipped _) ->
           fire_hooks t ~identity:pk.pk_principal pk.pk_op r
         | Remote Peer | Replay -> ());
        let encoded = lazy (Protocol.encode_response r) in
        if not (String.equal pk.pk_req_id "") then begin
          let response = Lazy.force encoded in
          journal t pk.pk_req_id { dd_at = pk.pk_now; dd_response = response };
          log t (Done { req_id = pk.pk_req_id; at = pk.pk_now; response })
        end;
        (pk, r, encoded))
      items
  in
  if List.exists (fun pk -> not (String.equal pk.pk_req_id "")) items then
    wal_sync t;
  List.iter (fun (pk, r, encoded) -> pk.pk_reply r encoded) served;
  if
    logged
    && (List.exists (fun pk -> contains_exec pk.pk_op) items
       || t.ops_since_ckpt >= t.checkpoint_every)
  then ignore (take_checkpoint t)

(* {1 Serving}

   One admission path for every request, whatever carries it.
   Requests arrive with a [reply] continuation — the network's
   {!Network.respond} on a connection, or a plain capture for direct
   dispatch.  Reads (and every auth/error path) are answered at
   admission.  Fresh mutations park: their WAL [Op] record is appended
   immediately — arrival order {e is} log order — and a batch flush
   hands everything parked to [commit]: one group-commit sync, the batch
   executed FIFO, the [Done] records appended and synced, and only then
   any response.  With [sv_flush_ns = 0] the flush runs before
   admission returns, a batch of one: log, sync, execute, answer.  With
   a window, one sync can cover many operations and thousands of
   sessions can be in flight at once.

   A hook may pump the event loop mid-batch (a replica's forward awaits
   its peers), and whatever falls due meanwhile runs inside the commit.
   Nothing of it may cut into the batch: a checkpoint waits for the
   outermost commit to end ({!take_checkpoint}), and so does a flush,
   whose items stay parked behind the batch members already logged, so
   execution order stays log order.  The outermost commit takes the
   checkpoint and arms the flush again. *)

let rec commit t origin items =
  let outermost = not t.committing in
  t.committing <- true;
  execute t origin items;
  if outermost then begin
    t.committing <- false;
    if t.checkpoint_due then ignore (take_checkpoint t);
    (* A backlog beyond the drain limit, or a flush that fell due
       inside the commit: schedule the next tick. *)
    if not (Queue.is_empty t.pending_q) then arm_flush t
  end

and flush_batch t =
  t.flush_armed <- false;
  if (not t.committing) && not (Queue.is_empty t.pending_q) then begin
    (* Drain at most [sv_flush_limit] operations — the server's
       engineered service rate.  A deeper backlog stays parked for
       later ticks, which is exactly what makes unbounded admission
       visible as latency (and what brownout exists to prevent). *)
    let rec take acc n =
      if n = 0 || Queue.is_empty t.pending_q then List.rev acc
      else take (Queue.pop t.pending_q :: acc) (n - 1)
    in
    let items = take [] t.sv_flush_limit in
    List.iter
      (fun pk ->
        if not (String.equal pk.pk_req_id "") then
          Hashtbl.remove t.parked_ids pk.pk_req_id)
      items;
    metric t "chirp.async.batch";
    metric_add t "chirp.async.batch_ops" (List.length items);
    commit t Client items
  end;
  (* The drain is what ends a brownout: re-evaluate now rather than on
     the next (possibly shed) admission. *)
  update_brownout t

and arm_flush t =
  if not t.flush_armed then begin
    t.flush_armed <- true;
    Network.at t.sv_net
      (Int64.add (Kernel.now t.sv_kernel) t.sv_flush_ns)
      (fun () -> flush_batch t)
  end

(* One logged mutation on its own (a remote apply or a replay). *)
let commit_one t origin ~identity ~req_id ~at op =
  let answer = ref None in
  commit t origin
    [
      {
        pk_principal = identity;
        pk_op = op;
        pk_req_id = req_id;
        pk_now = at;
        pk_reply = (fun r _ -> answer := Some r);
      };
    ];
  Option.get !answer

let admit t ~reply payload =
  let respond r = reply (Protocol.encode_response r) in
  let now = Kernel.now t.sv_kernel in
  match Protocol.decode_request payload with
  | Error msg ->
    (* Either a garbled frame (checksum mismatch) or a malformed
       request: a wire-level reset tells a retrying client to re-send
       rather than interpret this as an application verdict. *)
    metric t "chirp.bad_request";
    respond (Protocol.R_error (Errno.ECONNRESET, "bad request: " ^ msg))
  | Ok (Protocol.Auth creds) ->
    sweep_sessions t now;
    if Hashtbl.length t.sessions >= t.max_sessions then
      respond (shed_session_error t)
    else
      (match Negotiate.negotiate t.acceptor ~now creds with
       | Error msg ->
         metric t "chirp.auth.fail";
         respond (Protocol.R_error (Errno.EACCES, msg))
       | Ok (principal, method_, _attempts) ->
         metric t "chirp.auth.ok";
         (* A fresh session is about to issue checks: make sure the
            compiled-policy program matches the current generation so
            its first operations already ride the bytecode fast path. *)
         Enforce.refresh_bytecode t.enforce;
         let token = fresh_token t principal in
         Hashtbl.replace t.sessions token
           { ss_principal = principal; ss_method = method_; ss_last_used = now };
         respond
           (Protocol.R_auth
              { token; principal = Principal.to_string principal; method_ }))
  | Ok (Protocol.Op { token; req_id; op }) ->
    (match Hashtbl.find_opt t.sessions token with
     | None -> respond (Protocol.R_error (Errno.ESTALE, "no such session"))
     | Some s when Int64.sub now s.ss_last_used > t.session_idle_ns ->
       metric t "chirp.session.expired";
       Hashtbl.remove t.sessions token;
       respond (Protocol.R_error (Errno.ESTALE, "session expired"))
     | Some s ->
       s.ss_last_used <- now;
       let mutating = not (Protocol.idempotent op) in
       let park () =
         (* Admission control: a full queue — or brownout, entered at
            the high watermark — sheds the mutation with a retry-after
            hint instead of queueing it to death.  Reads never reach
            here: they are admitted before mutations, always. *)
         update_brownout t;
         if t.sv_brownout || Queue.length t.pending_q >= t.max_parked then begin
           metric t "chirp.shed.mutation";
           respond
             (Protocol.R_error
                ( Errno.EAGAIN,
                  Protocol.shed_message
                    ~retry_after_ns:(shed_retry_after t)
                    (if Queue.length t.pending_q >= t.max_parked then
                       "mutation queue full"
                     else "brownout") ))
         end
         else begin
           (* Log now (arrival order is log order), sync at the tick. *)
           log t (Op { identity = s.ss_principal; op });
           let pk =
             {
               pk_principal = s.ss_principal;
               pk_op = op;
               pk_req_id = req_id;
               pk_now = now;
               pk_reply = (fun _ encoded -> reply (Lazy.force encoded));
             }
           in
           Queue.add pk t.pending_q;
           if not (String.equal req_id "") then
             Hashtbl.replace t.parked_ids req_id pk;
           metric t "chirp.async.parked";
           update_brownout t;
           if t.sv_flush_ns = 0L then flush_batch t else arm_flush t
         end
       in
       let serve () = serve_contained t ~counted:true s.ss_principal op in
       if not mutating then begin
         (* Reads never park: serve at delivery, answer immediately. *)
         if String.equal req_id "" then respond (serve ())
         else
           match recorded t ~now req_id with
           | Some response ->
             metric t "chirp.dedup_hit";
             reply response
           | None ->
             let encoded = Protocol.encode_response (serve ()) in
             journal t req_id { dd_at = now; dd_response = encoded };
             reply encoded
       end
       else if String.equal req_id "" then park ()
       else
         match recorded t ~now req_id with
         | Some response ->
           (* A retry of work already done: replay the recorded
              response, execute nothing. *)
           metric t "chirp.dedup_hit";
           reply response
         | None ->
           (match Hashtbl.find_opt t.parked_ids req_id with
            | Some pk ->
              (* A retry racing its own original through the parked
                 batch: no second execution, no second log record —
                 both callers get the one response when the batch
                 flushes. *)
              metric t "chirp.async.coalesced";
              let first = pk.pk_reply in
              pk.pk_reply <-
                (fun r encoded ->
                  first r encoded;
                  reply (Lazy.force encoded))
            | None -> park ()))

(* Direct dispatch: admit, and if the request parked behind a flush
   window, flush now — the answer is ready on return. *)
let handle t payload =
  let answer = ref None in
  admit t ~reply:(fun r -> answer := Some r) payload;
  while
    Option.is_none !answer
    && (not t.committing)
    && not (Queue.is_empty t.pending_q)
  do
    flush_batch t
  done;
  Option.get !answer

let create ~kernel ~net ~addr ~owner_uid ~export ~acceptor ?root_acl
    ?(max_sessions = 64) ?(max_parked = 256)
    ?(session_idle_ns = 600_000_000_000L) ?wal ?(checkpoint_every = 128)
    ?(flush_interval_ns = 0L) ?(flush_batch_limit = max_int) () =
  let sv_owner = Kernel.make_view kernel ~uid:owner_uid () in
  let sv_export = Path.normalize export in
  let t =
    {
      sv_kernel = kernel;
      sv_counters = Idbox_kernel.Metrics.handles (Kernel.metrics kernel);
      sv_rpc_counters =
        Idbox_kernel.Metrics.handles ~prefix:"chirp.rpc." (Kernel.metrics kernel);
      sv_net = net;
      sv_addr = addr;
      sv_owner;
      sv_export;
      acceptor;
      enforce = Enforce.create kernel ~supervisor:sv_owner ();
      sv_revocations = Delegation.Revocations.create ();
      sv_audit = Audit.create ();
      sessions = Hashtbl.create 8;
      dedup = Hashtbl.create 8;
      dedup_order = Dedup_order.empty;
      max_sessions;
      max_parked = max 1 max_parked;
      session_idle_ns;
      boxes = Hashtbl.create 8;
      wal = (match wal with Some w -> w | None -> Wal.create ());
      checkpoint_every = max 1 checkpoint_every;
      digests = Hashtbl.create 32;
      sv_flush_ns = Int64.max 0L flush_interval_ns;
      sv_flush_limit = max 1 flush_batch_limit;
      pending_q = Queue.create ();
      parked_ids = Hashtbl.create 8;
      flush_armed = false;
      sv_brownout = false;
      committing = false;
      checkpoint_due = false;
      ops_since_ckpt = 0;
      execs = 0;
      token_counter = 0;
      mutation_hook = None;
      geo_hook = None;
    }
  in
  match Fs.mkdir_p (Kernel.fs kernel) ~uid:owner_uid sv_export with
  | Error e -> Error e
  | Ok () ->
    let install_acl =
      match root_acl with
      | None -> Ok ()
      | Some acl -> Enforce.write_acl t.enforce ~dir:sv_export acl
    in
    (match install_acl with
     | Error e -> Error e
     | Ok () ->
       (* Checkpoint zero: the freshly installed root ACL (and whatever
          the export already held) is durable before the first request,
          so recovery always has an image to anchor replay on. *)
       (match take_checkpoint t with
        | Error e -> Error e
        | Ok () ->
          Network.listen_async net ~addr (fun conn payload ->
              admit t ~reply:(Network.respond net conn) payload);
          Ok t))

let shutdown t = Network.unlisten t.sv_net ~addr:t.sv_addr

let crash t =
  metric t "chirp.crash";
  (* Parked mutations are volatile: never acknowledged, so a crash
     drops them (their un-synced log records tear with the device).
     Their sessions need no separate release — the session table is the
     only slot accounting there is, and it resets on restart. *)
  Queue.clear t.pending_q;
  Hashtbl.reset t.parked_ids;
  t.flush_armed <- false;
  t.sv_brownout <- false;
  (* The endpoint goes down and the stable-storage device takes its
     seeded crash damage — possibly a torn fragment of a write that was
     in flight (never acknowledged), never a synced byte. *)
  Wal.crash t.wal;
  Network.crash t.sv_net ~addr:t.sv_addr

(* Delete the export subtree as the owner: recovery rebuilds it from
   the checkpoint and the log, so anything still in memory that never
   reached stable storage must actually be gone. *)
let wipe_export t =
  let rec rm abs =
    match delegate t (Syscall.Stat abs) with
    | Error _ -> ()
    | Ok (Syscall.Stat_v st) when st.Fs.st_kind = Inode.Directory ->
      (match delegate t (Syscall.Readdir abs) with
       | Ok (Syscall.Names names) ->
         List.iter
           (fun name -> rm (Path.join abs name))
           (List.sort String.compare names);
         Enforce.invalidate t.enforce ~dir:abs;
         ignore (delegate t (Syscall.Rmdir abs))
       | Ok _ | Error _ -> ())
    | Ok _ -> ignore (delegate t (Syscall.Unlink abs))
  in
  match delegate t (Syscall.Readdir t.sv_export) with
  | Ok (Syscall.Names names) ->
    List.iter
      (fun name -> rm (Path.join t.sv_export name))
      (List.sort String.compare names);
    Enforce.invalidate t.enforce ~dir:t.sv_export
  | Ok _ | Error _ -> ()

(* Come back from a crash with only what stable storage holds: load the
   latest checkpoint image, then replay the WAL through the serving
   path — same principals, same ACL checks, same order.  The torn tail
   (if the crash tore an in-flight write) fails its checksum and is
   discarded: it was never acknowledged, so nobody is owed it.  A record
   or checkpoint entry that passed its checksum but does not decode is
   skipped too, and counted in [chirp.recovery.undecodable].  Exec
   records never appear here ([commit] checkpoints them away),
   so replay runs no program twice; a defensive skip covers the
   impossible case anyway. *)
let restart t =
  metric t "chirp.restart";
  Hashtbl.reset t.sessions;
  Hashtbl.reset t.dedup;
  t.dedup_order <- Dedup_order.empty;
  Hashtbl.reset t.boxes;
  Hashtbl.reset t.digests;
  Queue.clear t.pending_q;
  Hashtbl.reset t.parked_ids;
  t.flush_armed <- false;
  t.sv_brownout <- false;
  let rc = Wal.recover t.wal in
  let c = cost t in
  let undecodable = ref 0 in
  wipe_export t;
  (* Rebuild the revocation store from stable storage alone: fresh
     epochs from the checkpoint image, then WAL replay re-applies any
     [Revoke] logged since.  The chain-verdict memo goes with the old
     store — its generation counter no longer means anything. *)
  t.sv_revocations <- Delegation.Revocations.create ();
  Enforce.drop_chains t.enforce;
  let restore_revocations blob =
    match Wire.decode blob with
    | Ok ("revocations" :: fields) ->
      ignore
        (Delegation.Revocations.merge t.sv_revocations
           (Delegation.Revocations.of_fields fields));
      true
    | Ok _ | Error _ -> false
  in
  (match rc.Wal.rc_checkpoint with
   | None -> ()
   | Some blob ->
     metric t "chirp.recovery.checkpoint_loads";
     (match Wire.decode blob with
      | Ok (dedup_blob :: entry_blobs) ->
        let entry_blobs =
          List.filter (fun b -> not (restore_revocations b)) entry_blobs
        in
        let entries = List.filter_map snap_decode entry_blobs in
        undecodable := !undecodable + List.length entry_blobs - List.length entries;
        charge t
          (Int64.mul
             (Int64.of_int (List.length entries))
             c.Idbox_kernel.Cost.checkpoint_entry_ns);
        ignore (install_entries t entries);
        (match Wire.decode dedup_blob with
         | Ok fields ->
           let rec restore = function
             | rid :: at :: resp :: rest ->
               (match Int64.of_string_opt at with
                | Some dd_at -> journal t rid { dd_at; dd_response = resp }
                | None -> incr undecodable);
               restore rest
             | [] -> ()
             | _ :: _ -> incr undecodable
           in
           restore fields
         | Error _ -> incr undecodable)
      | Ok [] | Error _ -> incr undecodable));
  let replayed = ref 0 in
  List.iter
    (fun blob ->
      charge t
        (Int64.add c.Idbox_kernel.Cost.wal_replay_ns
           (Idbox_kernel.Cost.copy_bytes c (String.length blob)));
      match decode_record blob with
      | Some (Op { op; _ }) when contains_exec op ->
        metric t "chirp.recovery.exec_skipped"
      | Some (Op { identity; op }) ->
        incr replayed;
        ignore (commit_one t Replay ~identity ~req_id:"" ~at:0L op)
      | Some (Done { req_id; at; response }) ->
        journal t req_id { dd_at = at; dd_response = response }
      | None -> incr undecodable)
    rc.Wal.rc_records;
  t.ops_since_ckpt <- List.length rc.Wal.rc_records;
  metric_add t "chirp.recovery.replayed" !replayed;
  metric_add t "chirp.recovery.torn" rc.Wal.rc_torn_records;
  metric_add t "chirp.recovery.undecodable" !undecodable;
  Network.restart t.sv_net ~addr:t.sv_addr

let wal_records t = Wal.records t.wal
let wal_bytes t = Wal.log_bytes t.wal
let checkpoint_now t = take_checkpoint t

(* {1 Replication hooks}

   The cluster layer plugs in here.  The server stays ignorant of
   rings and membership: it reports fresh mutations to whatever hook
   is installed, and applies/ships subtrees on request over a channel
   the cluster authenticates by construction (peer servers, not
   clients). *)

let set_mutation_hook t hook = t.mutation_hook <- Some hook
let set_geo_hook t hook = t.geo_hook <- Some hook
let clear_geo_hook t = t.geo_hook <- None

(* Anti-entropy for revocation epochs: a peer's (delegator, epoch) list
   max-merges into the local store.  Merges are not WAL-logged (they are
   not client operations); a crash loses them only until the next gossip
   round, and monotonicity makes re-merging free.  Fail-closed either
   way: a lost merge can only under-revoke until the gossip heals it,
   never resurrect a chain the local store already killed. *)
let merge_epochs t entries =
  let changed = Delegation.Revocations.merge t.sv_revocations entries in
  if changed then metric t "chirp.revocation.merge";
  changed

let epoch_entries t = Delegation.Revocations.entries t.sv_revocations

(* A mutation from another server is as durable as a client's own:
   logged and synced before it executes.  A shipment is idempotent by
   its key, the geo LSN: a re-shipped one replays its recorded
   response. *)
let apply t remote ~identity op =
  let now = Kernel.now t.sv_kernel in
  let execute req_id =
    log t (Op { identity; op });
    Applied (commit_one t (Remote remote) ~identity ~req_id ~at:now op)
  in
  match remote with
  | Peer ->
    metric t "chirp.repl.apply";
    execute ""
  | Shipped req_id ->
    (match recorded t ~now req_id with
     | Some response ->
       metric t "chirp.geo.dedup_hit";
       Replayed response
     | None ->
       metric t "chirp.geo.apply";
       execute req_id)

(* Install a shipped subtree as the owner: the ACL checks already
   happened where the data was written the first time.  The install is
   a bulk state change that the log does not describe, so it is made
   durable by checkpointing — which also truncates any now-superseded
   records. *)
let install_snapshot t entries =
  metric t "chirp.repl.install";
  match install_entries t entries with
  | Error e -> Error e
  | Ok () ->
    ignore (take_checkpoint t);
    Ok ()

(* Make the subtree under [prefix] exactly equal to [entries]: install
   everything shipped, delete everything else.  Plain installs are
   additive — good enough for rebalance, where the target starts empty,
   but anti-entropy must also remove divergent extras or digests never
   converge.  Deletion is safe because the entries come from the
   shard's primary, which has seen every acknowledged write. *)
let install_subtree_exact t ~prefix entries =
  metric t "chirp.repair.install";
  match snapshot_subtree t prefix with
  | Error e -> Error e
  | Ok current ->
    let keep = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace keep (snapshot_path e) ()) entries;
    (* Children precede parents in the reversed snapshot order, so a
       stale directory is empty by the time its rmdir runs. *)
    List.iter
      (fun entry ->
        let wire = snapshot_path entry in
        if not (Hashtbl.mem keep wire) then
          match map_path t wire with
          | Error _ -> ()
          | Ok abs ->
            (match entry with
             | Snap_dir _ ->
               ignore (Rights_table.remove_dir t.enforce ~delegate:(delegate t) abs)
             | Snap_file _ -> ignore (delegate t (Syscall.Unlink abs))))
      (List.rev current);
    (match install_entries t entries with
     | Error e -> Error e
     | Ok () ->
       ignore (take_checkpoint t);
       Ok ())

(* {1 Anti-entropy digests}

   Per-directory Merkle-style digests over names, kinds, file-content
   hashes and ACL text.  The {e local} digest of a directory covers its
   ACL and direct children only, and is memoized under the directory's
   (ino, generation) token — PR 4's generation counters make the memo
   sound, because namespace changes, ACL writes and content writes all
   bump it.  Subtree digests fold children's subtree digests into the
   local one, so any divergence anywhere below differs at the root.
   Generations themselves are node-local counters and are never part of
   the digest: replicas compare {e content}, not history. *)

let local_digest t abs =
  match Fs.dir_token (Kernel.fs t.sv_kernel) abs with
  | None -> Error Errno.ENOENT
  | Some token ->
    (match Hashtbl.find_opt t.digests abs with
     | Some m when m.dg_token = token ->
       metric t "chirp.digest.hit";
       charge t (cost t).Idbox_kernel.Cost.gen_check_ns;
       Ok m
     | _ ->
       metric t "chirp.digest.miss";
       (match delegate t (Syscall.Readdir abs) with
        | Error e -> Error e
        | Ok (Syscall.Names names) ->
          let names =
            List.sort String.compare (Rights_table.visible names)
          in
          let acl =
            match Enforce.dir_acl t.enforce abs with
            | Some acl -> Acl.to_string acl
            | None -> ""
          in
          let rec fold fields subdirs = function
            | [] -> Ok (List.rev fields, List.rev subdirs)
            | name :: rest ->
              let child = Path.join abs name in
              (match delegate t (Syscall.Stat child) with
               | Error _ -> fold fields subdirs rest
               | Ok (Syscall.Stat_v st) when st.Fs.st_kind = Inode.Directory ->
                 fold (("d:" ^ name) :: fields) (child :: subdirs) rest
               | Ok (Syscall.Stat_v st) ->
                 (match
                    Fs.digest_file (Kernel.fs t.sv_kernel)
                      ~uid:t.sv_owner.View.uid child
                  with
                  | Ok digest ->
                    charge t
                      (Idbox_kernel.Cost.copy_bytes (cost t) st.Fs.st_size);
                    fold
                      (("f:" ^ name ^ ":" ^ Digest.to_hex digest) :: fields)
                      subdirs rest
                  | Error _ -> fold fields subdirs rest)
               | Ok _ -> fold fields subdirs rest)
          in
          (match fold [] [] names with
           | Error e -> Error e
           | Ok (fields, subdirs) ->
             charge t (cost t).Idbox_kernel.Cost.digest_dir_ns;
             let m =
               {
                 dg_token = token;
                 dg_local =
                   Digest.to_hex (Digest.string (Wire.encode (acl :: fields)));
                 dg_subdirs = subdirs;
               }
             in
             Hashtbl.replace t.digests abs m;
             Ok m)
        | Ok _ -> Error Errno.EINVAL))

let rec subtree_digest_abs t abs =
  match delegate t (Syscall.Stat abs) with
  | Error e -> Error e
  | Ok (Syscall.Stat_v st) when st.Fs.st_kind = Inode.Directory ->
    (match local_digest t abs with
     | Error e -> Error e
     | Ok m ->
       let rec fold acc = function
         | [] -> Ok (List.rev acc)
         | child :: rest ->
           (match subtree_digest_abs t child with
            | Error e -> Error e
            | Ok d -> fold ((Path.basename child ^ ":" ^ d) :: acc) rest)
       in
       (match fold [] m.dg_subdirs with
        | Error e -> Error e
        | Ok children ->
          Ok
            (Digest.to_hex
               (Digest.string (Wire.encode (m.dg_local :: children))))))
  | Ok (Syscall.Stat_v _) ->
    (* A bare file at the prefix (a top-level file shards on its own
       name): its digest is its content hash. *)
    Result.map Digest.to_hex
      (Fs.digest_file (Kernel.fs t.sv_kernel) ~uid:t.sv_owner.View.uid abs)
  | Ok _ -> Error Errno.EINVAL

let subtree_digest t wire_prefix =
  Result.bind (map_path t wire_prefix) (subtree_digest_abs t)

let dir_digests t wire_prefix =
  match map_path t wire_prefix with
  | Error e -> Error e
  | Ok abs0 ->
    let rec walk abs acc =
      match subtree_digest_abs t abs with
      | Error _ -> acc
      | Ok d ->
        let acc = (to_wire t abs, d) :: acc in
        (match local_digest t abs with
         | Error _ -> acc
         | Ok m -> List.fold_left (fun acc c -> walk c acc) acc m.dg_subdirs)
    in
    Ok (List.sort compare (walk abs0 []))

let shard_roots t =
  match delegate t (Syscall.Readdir t.sv_export) with
  | Ok (Syscall.Names names) ->
    Ok
      (List.sort String.compare (Rights_table.visible names))
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e
