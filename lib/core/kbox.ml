module Kernel = Idbox_kernel.Kernel
module View = Idbox_kernel.View
module Syscall = Idbox_kernel.Syscall
module Sysent = Idbox_kernel.Sysent
module Principal = Idbox_identity.Principal
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno
module Hierarchy = Idbox_identity.Hierarchy

type t = {
  kb_kernel : Kernel.t;
  kb_enforce : Enforce.t;
  kb_sup : View.t;
  identities : (int, Principal.t) Hashtbl.t;
  ns : Hierarchy.t;
  grid : Hierarchy.domain;  (* root:<operator>:grid *)
  domains : (string, Hierarchy.domain) Hashtbl.t;
      (* canonical principal -> its protection domain *)
  m_check : Idbox_kernel.Metrics.counter;
  m_allow : Idbox_kernel.Metrics.counter;
  m_deny : Idbox_kernel.Metrics.counter;
}

(* Hierarchy node names cannot contain ':'; principals can. *)
let node_name principal =
  String.map (fun c -> if c = ':' then '.' else c) (Principal.to_string principal)

let identity_of t pid =
  let rec lookup pid =
    match Hashtbl.find_opt t.identities pid with
    | Some identity -> Some identity
    | None ->
      (match Kernel.parent_of t.kb_kernel pid with
       | Some parent when parent <> pid && parent <> 0 -> lookup parent
       | Some _ | None -> None)
  in
  lookup pid

let enforcer t = t.kb_enforce

let namespace t = t.ns

let domain_of t principal =
  Hashtbl.find_opt t.domains (Principal.to_string principal)

(* The visitor's protection domain: minted on the fly, no account
   database — Figure 6's claim, executed. *)
let domain_for t principal =
  let key = Principal.to_string principal in
  match Hashtbl.find_opt t.domains key with
  | Some d when Hierarchy.find t.ns (Hierarchy.full_name d) <> None -> d
  | Some _ | None ->
    let d =
      match Hierarchy.create_child t.grid (node_name principal) with
      | Ok d -> d
      | Error _ ->
        (match Hierarchy.find t.ns (Hierarchy.full_name t.grid ^ ":" ^ node_name principal) with
         | Some d -> d
         | None -> invalid_arg "Kbox.domain_for: cannot mint domain")
    in
    Hashtbl.replace t.domains key d;
    d

(* The call's verdict from the rights table, each path made canonical
   once against the caller's cwd.  The calls with ACL side effects the
   kernel knows nothing of are answered here, through the table's own
   functions at direct kernel cost. *)
let table_verdict t ~identity (view : View.t) req =
  let answer value = function
    | Ok x -> Sysent.Answer (value x)
    | Error e -> Sysent.Deny e
  in
  match Rights_table.of_request req with
  | Rights_table.Free, _ -> Sysent.Allow
  | Rights_table.Refuse e, _ -> Sysent.Deny e
  | Rights_table.Signal target, _ ->
    (match identity_of t target with
     | Some target_id when Principal.equal target_id identity -> Sysent.Allow
     | Some _ | None -> Sysent.Deny Errno.EPERM)
  | Rights_table.Ask row, paths ->
    let e = t.kb_enforce and caller = { Rights_table.identity; limit = None } in
    let canon path = Enforce.canonical_parents e (Path.join view.View.cwd path) in
    let delegate req = Kernel.execute t.kb_kernel view req in
    let unit () = Syscall.Unit in
    (match (req, List.map canon paths) with
     | Syscall.Mkdir { mode; _ }, [ path ] ->
       answer unit (Rights_table.mkdir e caller ~delegate path ~mode)
     | Syscall.Rmdir _, [ path ] -> answer unit (Rights_table.rmdir e caller ~delegate path)
     | Syscall.Readdir _, [ path ] ->
       answer (fun ns -> Syscall.Names ns) (Rights_table.readdir e caller ~delegate path)
     | Syscall.Getacl _, [ path ] ->
       answer (fun s -> Syscall.Str s) (Rights_table.getacl e caller ~delegate path)
     | Syscall.Setacl { entry; _ }, [ path ] ->
       answer unit (Rights_table.setacl e caller path ~entry)
     | _, abs ->
       (match Rights_table.authorize e caller row abs with
        | Ok () -> Sysent.Allow
        | Error err -> Sysent.Deny err))

let hook t ~pid view req =
  match Hashtbl.find_opt t.identities pid, identity_of t pid with
  | None, None -> Sysent.Allow  (* not a boxed process *)
  | _, Some identity ->
    (* Children inherit the domain: memoize the inherited binding. *)
    if not (Hashtbl.mem t.identities pid) then
      Hashtbl.replace t.identities pid identity;
    Idbox_kernel.Metrics.incr t.m_check;
    let v = table_verdict t ~identity view req in
    (match v with
     | Sysent.Allow | Sysent.Answer _ -> Idbox_kernel.Metrics.incr t.m_allow
     | Sysent.Deny _ -> Idbox_kernel.Metrics.incr t.m_deny);
    v
  | Some _, None -> assert false

let install kernel ~supervisor_uid ?(caching = true) ?bytecode () =
  let kb_sup = Kernel.make_view kernel ~uid:supervisor_uid () in
  let ns = Hierarchy.create () in
  let operator_name =
    Idbox_kernel.Account.name_of_uid (Kernel.accounts kernel) supervisor_uid
  in
  let operator =
    match Hierarchy.create_child (Hierarchy.root ns) operator_name with
    | Ok d -> d
    | Error m -> invalid_arg m
  in
  let grid =
    match Hierarchy.create_child operator "grid" with
    | Ok d -> d
    | Error m -> invalid_arg m
  in
  let registry = Kernel.metrics kernel in
  let t =
    {
      kb_kernel = kernel;
      kb_enforce =
        Enforce.create ~in_kernel:true ~caching ?bytecode kernel ~supervisor:kb_sup ();
      kb_sup;
      identities = Hashtbl.create 16;
      ns;
      grid;
      domains = Hashtbl.create 16;
      m_check = Idbox_kernel.Metrics.counter registry "kbox.check";
      m_allow = Idbox_kernel.Metrics.counter registry "kbox.allow";
      m_deny = Idbox_kernel.Metrics.counter registry "kbox.deny";
    }
  in
  Kernel.set_security_hook kernel (Some (fun ~pid view req -> hook t ~pid view req));
  Kernel.set_identity_provider kernel
    (Some
       (fun pid ->
         Option.map Principal.to_string (identity_of t pid)));
  t

let uninstall t =
  Kernel.set_security_hook t.kb_kernel None;
  Kernel.set_identity_provider t.kb_kernel None

let spawn t ~identity ~path ~args () =
  let abs = Path.normalize path in
  match
    Rights_table.authorize t.kb_enforce
      { Rights_table.identity; limit = None }
      Rights_table.execute [ abs ]
  with
  | Error e -> Error e
  | Ok () ->
    (match
       Kernel.spawn t.kb_kernel ~uid:t.kb_sup.View.uid ~cwd:"/"
         ~env:[ ("USER", Principal.to_string identity) ]
         ~path:abs ~args ()
     with
     | Error e -> Error e
     | Ok pid ->
       ignore (domain_for t identity);
       Hashtbl.replace t.identities pid identity;
       Ok pid)

let spawn_main t ~identity ~main ~args =
  let pid =
    Kernel.spawn_main t.kb_kernel ~uid:t.kb_sup.View.uid ~cwd:"/"
      ~env:[ ("USER", Principal.to_string identity) ]
      ~main ~args ()
  in
  ignore (domain_for t identity);
  Hashtbl.replace t.identities pid identity;
  pid

let retire t ~full_name =
  match Hierarchy.find t.ns full_name with
  | None -> Error (Printf.sprintf "no domain %S" full_name)
  | Some target ->
    (* Identities whose domain is the target or lives under it. *)
    let doomed =
      Hashtbl.fold
        (fun key d acc ->
          if Hierarchy.can_manage ~actor:target ~subject:d then key :: acc
          else acc)
        t.domains []
    in
    let killed = ref 0 in
    Hashtbl.iter
      (fun pid principal ->
        if List.mem (Principal.to_string principal) doomed then
          match Kernel.kill t.kb_kernel ~pid ~signal:9 with
          | Ok () -> incr killed
          | Error _ -> ())
      (Hashtbl.copy t.identities);
    List.iter
      (fun key ->
        Hashtbl.remove t.domains key;
        Hashtbl.iter
          (fun pid p ->
            if String.equal (Principal.to_string p) key then
              Hashtbl.remove t.identities pid)
          (Hashtbl.copy t.identities))
      doomed;
    (match Hierarchy.delete target with
     | Ok () -> ()
     | Error _ -> () (* retiring the grid root itself: subtree cleared above *));
    Ok !killed
