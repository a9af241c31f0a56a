module Clock = Idbox_kernel.Clock
module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Trace = Idbox_kernel.Trace
module Network = Idbox_net.Network
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Catalog = Idbox_chirp.Catalog
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Wildcard = Idbox_identity.Wildcard
module Errno = Idbox_vfs.Errno

type member = {
  m_name : string;
  m_host : string;
  m_server : Server.t;
  m_replica : Replica.node;
  m_repair : Repair.t;
  m_heartbeat : Catalog.heartbeat;
  mutable m_beating : bool;
}

type t = {
  w_clock : Clock.t;
  w_net : Network.t;
  w_kernel : Kernel.t;
  w_ca : Ca.t;
  w_catalog : Catalog.t;
  w_root_acl : Acl.t;
  w_hb_interval_ns : int64;
  w_repair_ns : int64;
  w_trace : Trace.ring option;
  mutable w_members : member list;
}

let catalog_address = "catalog.grid.edu:9097"

let default_root_acl =
  Acl.of_entries
    [
      Entry.make ~pattern:"globus:/O=Grid/*"
        ~reserve:(Rights.of_string_exn "rwlaxd")
        (Rights.of_string_exn "rl");
      Entry.make ~pattern:"hostname:*.grid.edu" (Rights.of_string_exn "rl");
    ]

(* [?clock]/[?net] let several worlds share one simulated fabric (the
   geo tier links two regions over a common network so partitions can
   cut the WAN between them); [?catalog_addr] gives each such world its
   own catalog endpoint.  A world created with no arguments is its own
   universe, exactly as before. *)
let create ?clock ?net ?ca ?(catalog_addr = catalog_address) ?staleness_ns
    ?(heartbeat_interval_ns = 60_000_000_000L)
    ?(repair_interval_ns = 30_000_000_000L) ?(root_acl = default_root_acl)
    ?trace () =
  let clock =
    match (clock, net) with
    | Some c, _ -> c
    | None, Some n -> Network.clock n
    | None, None -> Clock.create ()
  in
  let net = match net with Some n -> n | None -> Network.create ~clock () in
  let kernel = Kernel.create ~clock () in
  let catalog = Catalog.create ?staleness_ns net ~addr:catalog_addr in
  {
    w_clock = clock;
    w_net = net;
    w_kernel = kernel;
    w_ca = (match ca with Some ca -> ca | None -> Ca.create ~name:"Grid CA");
    w_catalog = catalog;
    w_root_acl = root_acl;
    w_hb_interval_ns = heartbeat_interval_ns;
    w_repair_ns = repair_interval_ns;
    w_trace = trace;
    w_members = [];
  }

let net t = t.w_net
let kernel t = t.w_kernel
let clock t = t.w_clock
let ca t = t.w_ca
let catalog_addr t = Catalog.addr t.w_catalog
let catalog t = t.w_catalog
let replicas _ = Shard.replicas

let default_acceptor t =
  Negotiate.acceptor ~trusted_cas:[ t.w_ca ]
    ~host_ok:(fun h -> Wildcard.literal_matches "*.grid.edu" h)
    ()

let short_name host =
  match String.index_opt host '.' with
  | Some i -> String.sub host 0 i
  | None -> host

let add_node ?acceptor t ~host =
  let name = short_name host in
  if List.exists (fun m -> String.equal m.m_name name) t.w_members then
    Error (Printf.sprintf "world: member %s already exists" name)
  else
    let addr = host ^ ":9094" in
    let acceptor =
      match acceptor with Some a -> a | None -> default_acceptor t
    in
    (* A host that was scaled down and re-added still owns its old
       account — reuse it rather than refusing the node. *)
    let account =
      match Account.add (Kernel.accounts t.w_kernel) ("chirp_" ^ name) with
      | Ok owner -> Ok owner
      | Error _ as e ->
        (match Account.find (Kernel.accounts t.w_kernel) ("chirp_" ^ name) with
         | Some owner -> Ok owner
         | None -> e)
    in
    match account with
    | Error m -> Error m
    | Ok owner ->
      Kernel.refresh_passwd t.w_kernel;
      (match
         Server.create ~kernel:t.w_kernel ~net:t.w_net ~addr
           ~owner_uid:owner.Account.uid ~export:("/tmp/chirp_" ^ name) ~acceptor
           ~root_acl:t.w_root_acl ()
       with
       | Error e -> Error (Errno.to_string e)
       | Ok server ->
         let heartbeat =
           Catalog.heartbeat ~src:host ~interval_ns:t.w_hb_interval_ns t.w_net
             ~catalog:(Catalog.addr t.w_catalog) ~name ~server_addr:addr
             ~owner:("chirp:" ^ name)
         in
         let replica =
           Replica.attach ~net:t.w_net ~server ~name
             ~catalog:(Catalog.addr t.w_catalog) ?trace:t.w_trace ()
         in
         let m =
           {
             m_name = name;
             m_host = host;
             m_server = server;
             m_replica = replica;
             m_repair = Repair.attach ~interval_ns:t.w_repair_ns replica;
             m_heartbeat = heartbeat;
             m_beating = true;
           }
         in
         t.w_members <-
           List.sort (fun a b -> String.compare a.m_name b.m_name)
             (m :: t.w_members);
         Ok ())

(* Scale-down, as opposed to {!crash}: the node announces its departure
   (deregister drops the lease now instead of letting it age out) and
   leaves the member set, but its server keeps listening as a zombie so
   requests already in flight toward it complete while routers converge
   on the new membership.  A later [add_node] of the same host replaces
   the zombie's endpoint.  If the catalog is unreachable the departure
   degrades to a crash-like exit: the lease ages out instead. *)
let remove_node t name =
  match List.find_opt (fun m -> String.equal m.m_name name) t.w_members with
  | None -> Error (Printf.sprintf "world: no member %s" name)
  | Some m ->
    m.m_beating <- false;
    (match
       Catalog.deregister ~src:m.m_host t.w_net
         ~catalog:(Catalog.addr t.w_catalog) ~name
     with
     | Ok () -> ()
     | Error _ -> ());
    t.w_members <-
      List.filter (fun x -> not (String.equal x.m_name name)) t.w_members;
    Ok ()

let settle t =
  List.iter (fun m -> Replica.refresh_now m.m_replica) t.w_members

(* Only live members take the step: a crashed server sends no
   heartbeat, membership poll or anti-entropy check. *)
let tick t =
  List.iter
    (fun m ->
      if m.m_beating then begin
        ignore (Catalog.tick m.m_heartbeat);
        Replica.tick m.m_replica;
        Repair.tick m.m_repair
      end)
    t.w_members

let members t = List.map (fun m -> m.m_name) t.w_members
let member_hosts t = List.map (fun m -> m.m_host) t.w_members

let find t name =
  match List.find_opt (fun m -> String.equal m.m_name name) t.w_members with
  | Some m -> m
  | None -> raise Not_found

let server t name = (find t name).m_server
let replica t name = (find t name).m_replica
let repair t name = (find t name).m_repair

let repair_sweep t =
  List.iter (fun m -> if m.m_beating then Repair.sweep m.m_repair) t.w_members

(* A crashed member takes no replication traffic: its [#repl] endpoint
   goes down and comes back with its Chirp endpoint. *)
let crash t name =
  let m = find t name in
  Server.crash m.m_server;
  Network.crash t.w_net ~addr:(Replica.repl_addr (Server.addr m.m_server));
  m.m_beating <- false

let restart t name =
  let m = find t name in
  Server.restart m.m_server;
  Network.restart t.w_net ~addr:(Replica.repl_addr (Server.addr m.m_server));
  m.m_beating <- true

let issue t cn =
  Credential.Gsi (Ca.issue t.w_ca (Subject.of_string_exn ("/O=Grid/CN=" ^ cn)))

let principal_of cn = "globus:/O=Grid/CN=" ^ cn

let delegate ?(ttl_ns = 3_600_000_000_000L) ?(hops = 4) ?epoch t ~delegator
    ~delegatee ~rights ~prefix () =
  Idbox_kernel.Metrics.incr
    (Idbox_kernel.Metrics.counter
       (Kernel.metrics t.w_kernel)
       "auth.delegation.mint");
  Idbox_auth.Delegation.mint t.w_ca ~delegator:(principal_of delegator)
    ~delegatee:(principal_of delegatee) ~rights ~prefix
    ~now:(Clock.now t.w_clock) ~ttl_ns ~hops ?epoch ()

let connect ?src ?policy t ~credentials =
  Router.connect ?src ?policy ?trace:t.w_trace t.w_net
    ~catalog:(Catalog.addr t.w_catalog) ~credentials
