module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Trace = Idbox_kernel.Trace
module Client = Idbox_chirp.Client
module Wire = Idbox_chirp.Wire
module Errno = Idbox_vfs.Errno
module Path = Idbox_vfs.Path
module Breaker = Idbox_net.Breaker

type t = {
  rt_net : Network.t;
  rt_src : string;
  rt_policy : Client.retry_policy;
  rt_creds : Idbox_auth.Credential.t list;
  rt_membership : Membership.t;
  rt_replicas : int;
  rt_vnodes : int;
  rt_trace : Trace.ring option;
  rt_conns : (string, Client.t) Hashtbl.t;  (* keyed by node name *)
  mutable rt_ring : Ring.t;
  mutable rt_view : (string * string) list;
  mutable rt_principal : string;
  rt_prefixes : (string, unit) Hashtbl.t;  (* shard keys touched, for rebalance *)
  mutable rt_routes : int;
  mutable rt_failovers : int;
  (* Route cache: shard key -> owner list, valid for one membership
     epoch.  Only the consistent-hash computation is cached — per-route
     metrics and trace spans still fire on every call, so transcripts
     are byte-identical with the cache on. *)
  rt_route_cache : (string, string list) Hashtbl.t;
  mutable rt_route_epoch : int;
  (* Per-node circuit breakers, fed by transport faults only: they
     steer sweeps away from known-bad replicas. *)
  rt_breakers : (string, Breaker.t) Hashtbl.t;
  rt_hint_recent : (string, int64) Hashtbl.t;  (* key -> suppress until *)
  (* Counter handles, interned on first use: [rt_counters] by name,
     [rt_primary] by primary for [cluster.route.<primary>]. *)
  rt_counters : Metrics.handles;
  rt_primary : Metrics.handles;
}

let principal t = t.rt_principal
let nodes t = Ring.nodes t.rt_ring
let routes t = t.rt_routes
let failovers t = t.rt_failovers

let metric t name = Metrics.incr (Metrics.handle t.rt_counters name)

let span t ~syscall ~verdict =
  match t.rt_trace with
  | None -> ()
  | Some ring ->
    Trace.span ring ~time:(Clock.now (Network.clock t.rt_net)) ~pid:0
      ~identity:t.rt_principal ~syscall ~verdict ~cost_ns:0L

(* Transport-level failures that justify trying another replica — the
   same set the Chirp client treats as retryable, minus EAGAIN (a live
   server shedding load is an answer, not an absence). *)
let transient = function
  | Errno.ETIMEDOUT | Errno.ECONNRESET | Errno.ECONNREFUSED
  | Errno.EHOSTUNREACH -> true
  | _ -> false

let breaker_for t name =
  match Hashtbl.find_opt t.rt_breakers name with
  | Some b -> b
  | None ->
    let b =
      Breaker.create ~threshold:3 ~reset_ns:500_000_000L
        ~prefix:"cluster.breaker"
        ~on_transition:(fun subject state ->
          span t ~syscall:"cluster.breaker"
            ~verdict:(subject ^ ":" ^ Breaker.state_name state))
        ~clock:(Network.clock t.rt_net) ~metrics:(Network.metrics t.rt_net)
        name
    in
    Hashtbl.replace t.rt_breakers name b;
    b

let note_prefix t key = Hashtbl.replace t.rt_prefixes key ()

let node_for t path =
  Ring.lookup t.rt_ring (Replica.shard_key path)

(* An authenticated session with one shard, opened on demand and
   cached.  The identity invariant is enforced here: a shard that
   negotiates a different principal for our credentials is refused —
   and the whole call fails, rather than quietly running one user's
   operation under another's name. *)
let conn_for t name =
  match Hashtbl.find_opt t.rt_conns name with
  | Some c -> Ok c
  | None ->
    (match List.assoc_opt name t.rt_view with
     | None -> Error (`Down Errno.EHOSTUNREACH)
     | Some addr ->
       (match
          Client.connect ~src:t.rt_src ~policy:t.rt_policy t.rt_net ~addr
            ~credentials:t.rt_creds
        with
        | Error _ -> Error (`Down Errno.EHOSTUNREACH)
        | Ok c ->
          if String.equal (Client.principal c) t.rt_principal then begin
            Hashtbl.replace t.rt_conns name c;
            Ok c
          end
          else begin
            metric t "cluster.identity.mismatch";
            span t ~syscall:"cluster.identity"
              ~verdict:(name ^ ":" ^ Client.principal c);
            Error `Mismatch
          end))

(* One exchange with one node, shared by the read sweep, the forced
   probe and writes: open or reuse the session, run the call, and feed
   the node's breaker.  A transport fault is a failure; any answer —
   even an error verdict, EAGAIN included — proves liveness.  An
   identity mismatch answers EPERM and feeds nothing: the node is up,
   it just may not serve this caller. *)
let exchange t name f =
  let br = breaker_for t name in
  match conn_for t name with
  | Error `Mismatch -> Error Errno.EPERM
  | Error (`Down e) ->
    Breaker.failure ~errno:e br;
    Error e
  | Ok c ->
    let r = f c in
    (match r with
     | Error e when transient e -> Breaker.failure ~errno:e br
     | _ -> Breaker.success br);
    r

let flush_route_cache t =
  if Hashtbl.length t.rt_route_cache > 0 then begin
    metric t "cluster.route.cache.flush";
    Hashtbl.reset t.rt_route_cache
  end;
  t.rt_route_epoch <- Membership.generation t.rt_membership

let sync t =
  match Membership.refresh t.rt_membership with
  | Error _ -> ()  (* unreachable catalog is not evidence servers died *)
  | Ok false -> ()
  | Ok true ->
    let new_view = Membership.view t.rt_membership in
    let after =
      Ring.create ~vnodes:t.rt_vnodes (List.map fst new_view)
    in
    metric t "cluster.rebalance";
    let migrations =
      Replica.rebalance t.rt_net ~src:t.rt_src ~before:t.rt_ring ~after
        ~old_view:t.rt_view ~new_view ~replicas:t.rt_replicas
        ~prefixes:
          (List.sort String.compare
             (Hashtbl.fold (fun key () acc -> key :: acc) t.rt_prefixes []))
        ()
    in
    span t ~syscall:"cluster.rebalance"
      ~verdict:(Printf.sprintf "members=%d migrations=%d"
                  (List.length new_view) migrations);
    (* Sessions to departed nodes die with the view; a re-admitted node
       gets a fresh authentication (and a fresh identity check) and a
       fresh breaker. *)
    Hashtbl.iter
      (fun name _ ->
        if not (List.mem_assoc name new_view) then begin
          Hashtbl.remove t.rt_conns name;
          Hashtbl.remove t.rt_breakers name
        end)
      (Hashtbl.copy t.rt_conns);
    t.rt_ring <- after;
    t.rt_view <- new_view;
    flush_route_cache t

let route t key =
  t.rt_routes <- t.rt_routes + 1;
  metric t "cluster.route";
  note_prefix t key;
  if Membership.generation t.rt_membership <> t.rt_route_epoch then
    flush_route_cache t;
  let owners =
    match Hashtbl.find_opt t.rt_route_cache key with
    | Some owners ->
      metric t "cluster.route.cache.hit";
      owners
    | None ->
      metric t "cluster.route.cache.miss";
      let owners = Ring.successors t.rt_ring key t.rt_replicas in
      Hashtbl.replace t.rt_route_cache key owners;
      owners
  in
  (match owners with
   | primary :: _ ->
     Metrics.incr (Metrics.handle t.rt_primary primary);
     (* The verdict is built only for a ring to keep it: as an argument
        it would be built before [span] looks. *)
     if Option.is_some t.rt_trace then
       span t ~syscall:"cluster.route" ~verdict:(key ^ "->" ^ primary)
   | [] -> ());
  owners

(* Every owner out of reach: the membership may have moved under us.
   Re-read the catalog, rebalance, and try the new ring once. *)
let retry_once t attempt =
  match attempt () with
  | Error e when transient e ->
    metric t "cluster.route.retry";
    sync t;
    attempt ()
  | r -> r

(* Read repair: a later replica answered after an earlier owner failed,
   so some copy of this key is unreachable or behind.  Nudge the key's
   primary with an untrusted hint — it schedules a digest check the
   primary performs itself, so a wrong guess costs one comparison.  The
   hint is submitted, never awaited: the primary is usually the very
   node the read just failed to reach, and waiting out its timeout
   would charge the read for a nudge that carries no data.  The sender
   is bounded and deduped: on a flapping WAN link *every* failed-over
   read would otherwise emit a hint for the same few keys, growing the
   replica's pending set and burning round trips on redundant nudges.
   One hint per key per two timeout windows, at most [hint_cap]
   distinct keys outstanding; the overflow is counted and dropped — the
   cadence sweep covers every key regardless. *)
let hint_cap = 16

let read_repair_hint t key =
  let now = Clock.now (Network.clock t.rt_net) in
  Hashtbl.iter
    (fun k until -> if Int64.compare now until >= 0 then Hashtbl.remove t.rt_hint_recent k)
    (Hashtbl.copy t.rt_hint_recent);
  if Hashtbl.mem t.rt_hint_recent key
     || Hashtbl.length t.rt_hint_recent >= hint_cap then
    metric t "cluster.repair.hint_dropped"
  else
    match Ring.lookup t.rt_ring key with
    | None -> ()
    | Some primary ->
      (match List.assoc_opt primary t.rt_view with
       | None -> ()
       | Some addr ->
         Hashtbl.replace t.rt_hint_recent key
           (Int64.add now (Int64.mul 2L t.rt_policy.Client.timeout_ns));
         metric t "cluster.read_repair.hint";
         span t ~syscall:"cluster.read_repair" ~verdict:key;
         ignore
           (Network.submit t.rt_net ~src:t.rt_src
              ~addr:(Replica.repl_addr addr)
              (Wire.encode [ "hint"; key ])))

(* A read sweeps the replica set: primary first, failing over to the
   next replica on a transport fault.  An application verdict (EACCES,
   ENOENT...) from a live replica is final — replicas run the same ACL
   checks, so shopping for a different answer is both useless and
   wrong. *)
let read_on t path f =
  let attempt () =
    let owners = route t (Replica.shard_key path) in
    let tried = ref false in
    let call c =
      tried := true;
      f c
    in
    let rec sweep = function
      | [] -> Error Errno.EHOSTUNREACH  (* no owners at all *)
      | name :: rest ->
        let failover e =
          if rest = [] then Error e
          else begin
            t.rt_failovers <- t.rt_failovers + 1;
            metric t "cluster.failover";
            span t ~syscall:"cluster.failover"
              ~verdict:(name ^ ":" ^ Errno.to_string e);
            sweep rest
          end
        in
        let br = breaker_for t name in
        if not (Breaker.allow br) then begin
          (* Short-circuit: skip the known-bad replica without spending
             a timeout on it, surfacing why it was abandoned. *)
          metric t "cluster.breaker.skip";
          failover (Breaker.last_errno br)
        end
        else
          match exchange t name call with
          | Error e when transient e -> failover e
          | r -> r
    in
    match (sweep owners, owners) with
    | Error e, primary :: _ when transient e && not !tried ->
      (* No call reached any owner: force one request at the primary
         anyway — breakers must never be able to brick a key, only to
         reorder who pays the timeouts. *)
      metric t "cluster.breaker.forced";
      exchange t primary f
    | r, _ -> r
  in
  let failovers_before = t.rt_failovers in
  let r = retry_once t attempt in
  (match r with
   | Ok _ when t.rt_failovers > failovers_before ->
     read_repair_hint t (Replica.shard_key path)
   | _ -> ());
  r

(* A write goes through the primary alone; the primary's server-side
   hook fans it out to the other owners (Replica.forward).  Writes never
   skip the primary — there is no other correct destination — but they
   still feed its breaker, so the read side learns from write-path
   faults too. *)
let write_on t path f =
  retry_once t (fun () ->
      match route t (Replica.shard_key path) with
      | [] -> Error Errno.EHOSTUNREACH
      | primary :: _ -> exchange t primary f)

let connect ?(src = "client") ?(policy = Client.default_policy) ?(replicas = 2)
    ?(vnodes = 64) ?trace net ~catalog ~credentials =
  let membership = Membership.create ~src net ~catalog in
  match Membership.refresh membership with
  | Error e -> Error ("cluster: catalog unreachable: " ^ e)
  | Ok _ ->
    let view = Membership.view membership in
    if view = [] then Error "cluster: no servers advertised"
    else begin
      let t =
        {
          rt_net = net;
          rt_src = src;
          rt_policy = policy;
          rt_creds = credentials;
          rt_membership = membership;
          rt_replicas = max 1 replicas;
          rt_vnodes = vnodes;
          rt_trace = trace;
          rt_conns = Hashtbl.create 8;
          rt_ring = Ring.create ~vnodes (List.map fst view);
          rt_view = view;
          rt_principal = "";
          rt_prefixes = Hashtbl.create 32;
          rt_routes = 0;
          rt_failovers = 0;
          rt_route_cache = Hashtbl.create 32;
          rt_route_epoch = Membership.generation membership;
          rt_breakers = Hashtbl.create 8;
          rt_hint_recent = Hashtbl.create 8;
          rt_counters = Metrics.handles (Network.metrics net);
          rt_primary = Metrics.handles ~prefix:"cluster.route." (Network.metrics net);
        }
      in
      (* Authenticate to every shard up front and require one
         principal everywhere: the paper's consistency-of-identity
         invariant, now a cluster admission check. *)
      let rec admit = function
        | [] -> Ok t
        | (name, addr) :: rest ->
          (match
             Client.connect ~src ~policy net ~addr ~credentials
           with
           | Error m -> Error (Printf.sprintf "cluster: shard %s: %s" name m)
           | Ok c ->
             if String.equal t.rt_principal "" then begin
               t.rt_principal <- Client.principal c;
               Hashtbl.replace t.rt_conns name c;
               admit rest
             end
             else if String.equal (Client.principal c) t.rt_principal then begin
               Hashtbl.replace t.rt_conns name c;
               admit rest
             end
             else begin
               metric t "cluster.identity.mismatch";
               Error
                 (Printf.sprintf
                    "cluster: identity differs across shards: %s negotiated \
                     %S, others %S — refusing to proceed"
                    name (Client.principal c) t.rt_principal)
             end)
      in
      admit view
    end

(* {1 The routed client API} *)

let mkdir t path = write_on t path (fun c -> Client.mkdir c path)
let rmdir t path = write_on t path (fun c -> Client.rmdir c path)
let unlink t path = write_on t path (fun c -> Client.unlink c path)
let put t ~path ~data = write_on t path (fun c -> Client.put c ~path ~data)
let get t path = read_on t path (fun c -> Client.get c path)
let stat t path = read_on t path (fun c -> Client.stat c path)
let readdir t path = read_on t path (fun c -> Client.readdir c path)
let getacl t path = read_on t path (fun c -> Client.getacl c path)

let setacl t ~path ~entry =
  write_on t path (fun c -> Client.setacl c ~path ~entry)

let rename t ~src ~dst =
  if String.equal (Replica.shard_key src) (Replica.shard_key dst) then
    write_on t src (fun c -> Client.rename c ~src ~dst)
  else begin
    (* Shards are disjoint namespaces on (generally) different servers:
       a cross-shard rename is a cross-device rename. *)
    metric t "cluster.exdev";
    Error Errno.EXDEV
  end

let exec t ?cwd ~path ~args () =
  let cwd = match cwd with Some c -> c | None -> Path.dirname path in
  let cwd_key = Replica.shard_key cwd in
  if
    String.equal cwd_key (Replica.shard_key path)
    || String.equal cwd_key "/"  (* the root exists on every shard *)
  then write_on t path (fun c -> Client.exec c ~cwd ~path ~args ())
  else begin
    metric t "cluster.exdev";
    Error Errno.EXDEV
  end

(* Delegated exec rides the write path like [exec]: the chain travels
   inside the operation, the primary validates it, and the server-side
   mutation hook forwards the whole delegated op to the other owners —
   each replica revalidates the chain against its own revocation view,
   so a replica that already heard a [Revoke] refuses the replay. *)
let exec_delegated t ~chain ?cwd ~path ~args () =
  let cwd = match cwd with Some c -> c | None -> Path.dirname path in
  let cwd_key = Replica.shard_key cwd in
  if
    String.equal cwd_key (Replica.shard_key path)
    || String.equal cwd_key "/"
  then begin
    metric t "cluster.delegated_exec";
    write_on t path (fun c ->
        Client.exec_delegated c ~chain ~cwd ~path ~args ())
  end
  else begin
    metric t "cluster.exdev";
    Error Errno.EXDEV
  end

(* Revocation is root-key state, like the export root's ACL: the write
   goes to the root primary and the server-side hook fans it to every
   member.  Partitioned members catch up by epoch gossip. *)
let revoke t who = write_on t "/" (fun c -> Client.revoke c who)

let delegation_epoch t who =
  read_on t "/" (fun c -> Client.delegation_epoch c who)

let checksum t path = read_on t path (fun c -> Client.checksum c path)
let whoami t = read_on t "/" (fun c -> Client.whoami c)
