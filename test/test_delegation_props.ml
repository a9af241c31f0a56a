(* Property suite for the chain-attenuation algebra (same shape as the
   enforcement-cache storm): under a seeded random storm of ACL
   rewrites, file churn, revocations and re-mints, two invariants must
   hold at every step —

   1. {e attenuation}: a delegated verdict never exceeds the root
      delegator's own verdict.  If a delegated check admits
      (path, right), then the delegator's direct check admits it too,
      the right is inside the chain's intersected grant, and the path
      is inside the chain's narrowest scope.

   2. {e memo transparency}: a cached engine and a cache-disabled
      engine watching the same kernel and the same revocation store
      return byte-identical chain verdicts and delegated verdicts —
      the chain memo may only change the cost of an answer, never the
      answer.

   Seeded and deterministic. *)

module Kernel = Idbox_kernel.Kernel
module Enforce = Idbox.Enforce
module Rights_table = Idbox.Rights_table
module Ca = Idbox_auth.Ca
module Delegation = Idbox_auth.Delegation
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

(* A row of one question: [right] on the object at the first path. *)
let object_row right =
  {
    Rights_table.guard = false;
    reserve = false;
    questions = [ { Rights_table.arg = 0; target = Rights_table.Object; right; or_write = false } ];
    or_else = [];
  }

let seeds = [ 1; 7; 42; 2005; 90210 ]
let steps = 40

let alice = "globus:/O=Grid/CN=Alice"
let bob = "globus:/O=Grid/CN=Bob"
let carol = "globus:/O=Grid/CN=Carol"

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let dirs = [ "/d/a"; "/d/b"; "/d/c" ]
let prefixes = [ "/"; "/d"; "/d/a"; "/d/b" ]
let masks = [ "r"; "rl"; "rwl"; "rx"; "rxl"; "rwlxad"; "-" ]
let rights_all = [ Right.Read; Right.Write; Right.List; Right.Execute;
                   Right.Admin; Right.Delete ]

let probes =
  dirs @ List.concat_map (fun d -> [ d ^ "/f0"; d ^ "/f1" ]) dirs

let patterns =
  [ "globus:/O=Grid/CN=Alice"; "globus:/O=Grid/*"; "globus:*" ]

let pick st l = List.nth l (Random.State.int st (List.length l))

let random_acl st =
  let n = 1 + Random.State.int st 3 in
  Acl.of_entries
    (List.init n (fun _ ->
         Entry.make ~pattern:(pick st patterns)
           (Rights.of_string_exn (pick st masks))))

(* A random 1- or 2-hop chain rooted at Alice.  Epochs are usually the
   delegator's current one (a live chain) and sometimes stale (a chain
   that must die on a revoked delegator). *)
let random_chain st ca rev ~now =
  let epoch_for st who =
    let cur = Delegation.Revocations.epoch rev who in
    if Random.State.int st 4 = 0 then max 0 (cur - 1) else cur
  in
  let hop ~delegator ~delegatee =
    Delegation.mint ca ~delegator ~delegatee
      ~rights:(Rights.of_string_exn (pick st masks))
      ~prefix:(pick st prefixes) ~now
      ~ttl_ns:(Int64.of_int (1 + Random.State.int st 2_000))
      ~hops:(1 + Random.State.int st 3)
      ~epoch:(epoch_for st delegator) ()
  in
  if Random.State.bool st then
    ([ hop ~delegator:alice ~delegatee:carol ], carol)
  else ([ hop ~delegator:alice ~delegatee:bob;
          hop ~delegator:bob ~delegatee:carol ], carol)

let verdict = function Ok () -> "ok" | Error e -> Errno.to_string e

let chain_verdict = function
  | Ok (s : Delegation.summary) ->
    Printf.sprintf "ok:%s:%s:%s:%Ld" s.Delegation.sum_root
      (Rights.to_string s.Delegation.sum_grant)
      s.Delegation.sum_prefix s.Delegation.sum_expires
  | Error f -> Delegation.failure_name f

let storm seed =
  let st = Random.State.make [| seed |] in
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  let cached = Enforce.create k ~supervisor:sup () in
  let uncached = Enforce.create ~caching:false k ~supervisor:sup () in
  let ca = Ca.create ~name:"Grid CA" in
  let rev = Delegation.Revocations.create () in
  List.iter
    (fun d ->
      ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 d);
      ok "seed" (Fs.write_file (Kernel.fs k) ~uid:0 (d ^ "/f0") "seed"))
    dirs;
  for step = 1 to steps do
    (* One random mutation per step: ACL rewrite, file churn, or a
       revocation (which also bumps the memo generation). *)
    (match Random.State.int st 4 with
     | 0 ->
       ok "acl" (Enforce.write_acl cached ~dir:(pick st dirs) (random_acl st))
     | 1 ->
       let f = pick st dirs ^ "/f1" in
       if Random.State.bool st then
         ok "write" (Fs.write_file (Kernel.fs k) ~uid:0 f "x")
       else ignore (Fs.unlink (Kernel.fs k) ~uid:0 f)
     | 2 -> ignore (Delegation.Revocations.revoke rev (pick st [ alice; bob ]))
     | _ -> ());
    let now = Int64.of_int (step * 100) in
    let chain, holder = random_chain st ca rev ~now in
    let admit e =
      Enforce.admit_chain e ~trusted:[ ca ] ~revocations:rev ~now ~holder chain
    in
    let rc = admit cached in
    let ru = admit uncached in
    if not (String.equal (chain_verdict rc) (chain_verdict ru)) then
      Alcotest.failf "seed %d step %d: chain verdict cached=%s uncached=%s"
        seed step (chain_verdict rc) (chain_verdict ru);
    match rc with
    | Error _ -> ()
    | Ok s ->
      let root = Principal.of_string s.Delegation.sum_root in
      List.iter
        (fun path ->
          List.iter
            (fun right ->
              let delegated e =
                Rights_table.authorize e
                  {
                    Rights_table.identity = root;
                    limit =
                      Some
                        {
                          Rights_table.grant = s.Delegation.sum_grant;
                          scope = s.Delegation.sum_prefix;
                        };
                  }
                  (object_row right)
                  [ path ]
              in
              let dc = delegated cached in
              let du = delegated uncached in
              if not (String.equal (verdict dc) (verdict du)) then
                Alcotest.failf
                  "seed %d step %d: %s: delegated cached=%s uncached=%s" seed
                  step path (verdict dc) (verdict du);
              if dc = Ok () then begin
                (* Attenuation: the delegated allow implies the
                   delegator's own allow, a granted right, and an
                   in-scope path. *)
                (match
                   Enforce.check_object uncached ~identity:root ~path right
                 with
                 | Ok () -> ()
                 | Error e ->
                   Alcotest.failf
                     "seed %d step %d: %s: delegated verdict exceeds \
                      delegator's own (%s)"
                     seed step path (Errno.to_string e));
                if not (Rights.mem right s.Delegation.sum_grant) then
                  Alcotest.failf "seed %d step %d: %s: right outside grant"
                    seed step path;
                if
                  not
                    (Delegation.scope_contains
                       ~prefix:s.Delegation.sum_prefix path)
                then
                  Alcotest.failf "seed %d step %d: %s: path outside scope"
                    seed step path
              end)
            rights_all)
        probes
  done

let storms () = List.iter storm seeds

let suite =
  [
    Alcotest.test_case "attenuation + memo transparency under storms" `Quick
      storms;
  ]
