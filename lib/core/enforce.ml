module Kernel = Idbox_kernel.Kernel
module View = Idbox_kernel.View
module Syscall = Idbox_kernel.Syscall
module Cost = Idbox_kernel.Cost
module Metrics = Idbox_kernel.Metrics
module Acl = Idbox_acl.Acl
module Right = Idbox_acl.Right
module Principal = Idbox_identity.Principal
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno
module Fs = Idbox_vfs.Fs
module Perm = Idbox_vfs.Perm
module Account = Idbox_kernel.Account
module Policy = Idbox_kernel.Policy
module Delegation = Idbox_auth.Delegation
module Expiry = Idbox_auth.Expiry

(* The engine's tables, keyed by path: compared with [String.equal]
   rather than polymorphic compare. *)
module Paths = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* How a cached ACL is known to still be current.  With caching on, the
   token is the governing directory's (ino, ACL generation), read off
   its inode ({!Fs.dir_inode}): the VFS bumps that generation on every
   change that can alter what the directory's ACL file reads as, and on
   nothing else, so one host-side integer compare revalidates — no
   delegated syscall — and content writes or plain-file churn in the
   directory do not evict its ACL.  With caching off, it is the legacy
   attribute check against the ACL file's (ino, mtime), which pays a
   delegated [Lstat] per check. *)
type token =
  | Dir_gen of (int * int) option  (** [None]: no such directory. *)
  | Acl_attr of (int * int64) option  (** [None]: no ACL file existed. *)

(* A cached ACL.  With caching on, the entry also remembers which inode
   its directory path resolved to, and in which {!Fs.generation}: while
   that generation stands still the path resolves to the same inode, so
   a later check takes the token straight off it instead of walking the
   path from "/" again. *)
type cached = {
  mutable token : token;
  mutable acl : Acl.t option;
  mutable at_gen : int;
  mutable inode : Idbox_vfs.Inode.t option;
}

(* A cached name resolution: the canonical path of the whole resolution
   and its directory, the one whose ACL governs the object.  A
   resolution holds while {!Fs.generation} stands still (any
   rename/link/unlink anywhere may retarget a path), so the table keeps
   the entries of one generation only and is emptied when it moves. *)
type name_cached = {
  nc_final : string;
  nc_dir : string;
}

(* A memoized delegation-chain verdict, valid while the revocation
   store's generation is unchanged (any revoke or gossip merge bumps
   it).  Only [Ok] summaries are cached: a rejected chain is rejected
   again from scratch, so chaos counters stay honest, and expiry is
   rechecked on every hit because time moves while generations don't. *)
type chain_cached = {
  cc_gen : int;
  cc_summary : Delegation.summary;
}

type t = {
  kernel : Kernel.t;
  fs : Fs.t;
  sup : View.t;
  cache : cached Paths.t;
  names : name_cached Paths.t;
  (* [canonical_parents] answers, (path, steps), for the same generation
     as [names]. *)
  canon : (string * int) Paths.t;
  mutable names_gen : int;  (* the generation [names] and [canon] hold *)
  chains : (string, chain_cached) Hashtbl.t;
  in_kernel : bool;
  caching : bool;
  bytecode : bool;
  (* The installed decision program, its compile latch (one compile
     attempt per policy generation — a rejected compile must not retry
     until the policy-visible namespace actually changes), and the
     test-only corruption hook for proving the verifier fails closed. *)
  mutable bc_prog : Policy.t option;
  mutable bc_attempt_gen : int;
  mutable bc_tamper : (Policy.t -> Policy.t) option;
  c_gen_check : int64;
  c_chain_hop : int64;
  c_bc_check : int64;
  c_bc_compile : int64;
  (* Counter handles are interned once here: the check path must not pay
     a string-keyed registry lookup per call. *)
  m_acl_hit : Metrics.counter;
  m_acl_miss : Metrics.counter;
  m_acl_inval : Metrics.counter;
  m_name_hit : Metrics.counter;
  m_name_miss : Metrics.counter;
  m_eval : Metrics.counter;
  m_eval_entries : Metrics.counter;
  m_read_fail : Metrics.counter;
  m_chain_hit : Metrics.counter;
  m_chain_miss : Metrics.counter;
  m_deleg_ok : Metrics.counter;
  m_bc_hit : Metrics.counter;
  m_bc_stale : Metrics.counter;
  m_bc_fallback : Metrics.counter;
  m_bc_recompile : Metrics.counter;
  m_bc_reject : Metrics.counter;
}

let acl_filename = Acl.filename

(* A suffix test, not [Path.basename]: a check calls it up to twice, and
   a basename first scans the whole path to tell whether it is normal. *)
let acl_suffix = "/" ^ acl_filename
let is_acl_file path = String.ends_with ~suffix:acl_suffix path

let create ?(in_kernel = false) ?(caching = true) ?bytecode kernel ~supervisor
    () =
  (* Register the ACL basename with the VFS: content writes land through
     file descriptors, so the generation bump happens at open time. *)
  Fs.watch_basename (Kernel.fs kernel) acl_filename;
  let c name = Metrics.counter (Kernel.metrics kernel) name in
  {
    kernel;
    fs = Kernel.fs kernel;
    sup = supervisor;
    cache = Paths.create 64;
    names = Paths.create 64;
    canon = Paths.create 64;
    names_gen = Fs.generation (Kernel.fs kernel);
    chains = Hashtbl.create 16;
    in_kernel;
    caching;
    (* Bytecode rides the same generation infrastructure the caches
       do; it defaults on exactly when they are. *)
    bytecode = (match bytecode with Some b -> b | None -> caching);
    bc_prog = None;
    bc_attempt_gen = -1;
    bc_tamper = None;
    c_gen_check = (Kernel.cost kernel).Cost.gen_check_ns;
    c_chain_hop = (Kernel.cost kernel).Cost.chain_hop_ns;
    c_bc_check = (Kernel.cost kernel).Cost.bytecode_check_ns;
    c_bc_compile = (Kernel.cost kernel).Cost.bytecode_compile_ns;
    m_acl_hit = c "acl.cache.hit";
    m_acl_miss = c "acl.cache.miss";
    m_acl_inval = c "acl.cache.invalidate";
    m_name_hit = c "enforce.name.hit";
    m_name_miss = c "enforce.name.miss";
    m_eval = c "acl.eval";
    m_eval_entries = c "acl.eval.entries";
    m_read_fail = c "acl.read.fail";
    m_chain_hit = c "enforce.chain.hit";
    m_chain_miss = c "enforce.chain.miss";
    m_deleg_ok = c "auth.delegation.ok";
    m_bc_hit = c "kernel.bytecode.hit";
    m_bc_stale = c "kernel.bytecode.stale";
    m_bc_fallback = c "kernel.bytecode.fallback";
    m_bc_recompile = c "kernel.bytecode.recompile";
    m_bc_reject = c "kernel.bytecode.reject";
  }

(* ------------------------------------------------------------------ *)
(* Compiled-policy bytecode.                                           *)

(* One compile attempt per policy generation: compilation is charged
   flat at [bytecode_compile_ns] and its outcome — installed program or
   verifier rejection (fail closed to the interpreter) — is latched
   until a policy-visible change ({!Fs.policy_generation}) happens. *)
let recompile_bytecode t ~gen =
  if t.bc_attempt_gen <> gen then begin
    t.bc_attempt_gen <- gen;
    Kernel.charge t.kernel t.c_bc_compile;
    match
      Policy_compile.compile ?tamper:t.bc_tamper (Kernel.fs t.kernel)
        ~uid:t.sup.View.uid
    with
    | Ok p ->
      Metrics.incr t.m_bc_recompile;
      t.bc_prog <- Some p;
      Kernel.set_policy t.kernel (Some p)
    | Error _ ->
      Metrics.incr t.m_bc_reject;
      t.bc_prog <- None;
      Kernel.set_policy t.kernel None
  end

let refresh_bytecode t =
  if t.bytecode then begin
    let gen = Fs.policy_generation (Kernel.fs t.kernel) in
    match t.bc_prog with
    | Some p when Policy.generation p = gen -> ()
    | Some _ | None -> recompile_bytecode t ~gen
  end

let set_bytecode_tamper t f =
  t.bc_tamper <- f;
  (* Drop the resident program and the latch so the next consult
     recompiles under the new corruption. *)
  t.bc_prog <- None;
  t.bc_attempt_gen <- -1;
  Kernel.set_policy t.kernel None

let bytecode_program t = t.bc_prog

(* The syscall-entry fast path: one policy-generation compare, then the
   program answers without touching the interpreter.  [None] sends the
   check to the interpreter — because bytecode is off, the program is
   stale or rejected, or it honestly answered [Unknown]. *)
let bytecode_consult t kind ~identity right =
  if not t.bytecode then None
  else begin
    let gen = Fs.policy_generation (Kernel.fs t.kernel) in
    let evaluate p =
      Kernel.charge t.kernel t.c_bc_check;
      let principal = Principal.to_string identity in
      let right_bit = Policy_compile.right_bit right in
      let v =
        match kind with
        | `Object path -> Policy.eval_object p ~principal ~path ~right_bit
        | `Dir dir -> Policy.eval_in_dir p ~principal ~dir ~right_bit
      in
      match v with
      | Policy.Allow ->
        Metrics.incr t.m_bc_hit;
        Some (Ok ())
      | Policy.Deny ->
        Metrics.incr t.m_bc_hit;
        Some (Error Errno.EACCES)
      | Policy.Unknown ->
        Metrics.incr t.m_bc_fallback;
        None
    in
    match t.bc_prog with
    | Some p when Policy.generation p = gen -> evaluate p
    | Some _ ->
      (* Stale: the interpreter serves this check; the recompile
         happens here, off the per-check fast path. *)
      Metrics.incr t.m_bc_stale;
      recompile_bytecode t ~gen;
      None
    | None ->
      recompile_bytecode t ~gen;
      (match t.bc_prog with
       | Some p when Policy.generation p = gen -> evaluate p
       | Some _ | None -> None)
  end

(* A user-level supervisor pays two context switches to make its own
   system calls; an in-kernel implementation (the Fig. 6 ablation) pays
   only the direct cost. *)
let delegate t req =
  if t.in_kernel then Kernel.execute t.kernel t.sup req
  else Kernel.delegate t.kernel t.sup req

(* {2 Bounds}

   The name cache, the canonical memo and the ACL cache each gain an
   entry per distinct path or directory checked, and a boxed visitor or
   a Chirp client chooses those paths.  A table at its capacity is
   emptied before the next insert, as the ACL matcher's memo is
   ({!Acl.memo_capacity}); flushed entries are simply resolved again.
   The capacities sit well above the working sets of the workloads
   (box-read: about 2,100 names and 70 directories per box). *)

let name_capacity = 8192
let acl_capacity = 1024

(* The discarded entries are counted under [evicted], registered on the
   first eviction: an engine that never evicts leaves the registry as it
   found it. *)
let insert_bounded t tbl ~capacity ~evicted key v =
  let n = Paths.length tbl in
  if n >= capacity && not (Paths.mem tbl key) then begin
    Metrics.add (Metrics.counter (Kernel.metrics t.kernel) evicted) n;
    Paths.reset tbl
  end;
  Paths.replace tbl key v

(* Empty the name cache and the canonical memo when {!Fs.generation}
   has moved since they were filled: their entries could only miss. *)
let sync_generation t =
  let gen = Fs.generation t.fs in
  if gen <> t.names_gen then begin
    Paths.reset t.names;
    Paths.reset t.canon;
    t.names_gen <- gen
  end

(* Resolve every ancestor symlink of [path], leaving the final component
   alone.  This is the supervisor's name-cache walk: lookups go straight
   at the (supervisor-mirrored) filesystem structure and are charged one
   name-cache cost per step, like dcache hits ({!Fs.canonical_parents}
   counts them).  Charging the steps at once adds up to the same clock
   as charging them one by one.  With caching on, the answer is memoized
   for the current generation, and a memoized answer is charged its
   steps again. *)
let charge_steps t (p, steps) =
  Kernel.charge t.kernel
    (Int64.mul (Int64.of_int steps) (Kernel.cost t.kernel).Cost.name_cache_ns);
  p

let canonical_parents t path =
  if not t.caching then charge_steps t (Fs.canonical_parents t.fs path)
  else begin
    sync_generation t;
    match Paths.find t.canon path with
    | answer -> charge_steps t answer
    | exception Not_found ->
      let answer = Fs.canonical_parents t.fs path in
      insert_bounded t t.canon ~capacity:name_capacity
        ~evicted:"enforce.canon.evict" path answer;
      charge_steps t answer
  end

(* Follow the symlink chain of [path] itself (ancestors are made
   canonical first).  Also returns the final object's stat so callers
   need not repeat the lstat. *)
let resolve_final_ex t path =
  let rec go path depth =
    match delegate t (Syscall.Lstat path) with
    | Ok (Syscall.Stat_v st)
      when st.Fs.st_kind = Idbox_vfs.Inode.Symlink && depth < Fs.symlink_limit ->
      (match delegate t (Syscall.Readlink path) with
       | Ok (Syscall.Str target) ->
         (* Expanded as the kernel will, ".." included, and charged
            like [canonical_parents]. *)
         go
           (charge_steps t (Fs.expand_link t.fs ~link:path target))
           (depth + 1)
       | Ok _ | Error _ -> (path, Some st))
    | Ok (Syscall.Stat_v st) -> (path, Some st)
    | Ok _ | Error _ -> (path, None)
  in
  go (canonical_parents t path) 0

(* The name cache (caching on), keyed by normalized path.  A hit
   replaces the ancestor walk plus the delegated final-lstat loop with
   one generation check; it does not know the final object's stat, so
   callers needing one fetch it lazily.  A miss resolves the path and
   also returns the stat it read, [None] when that proved the object
   absent.  Callers run [sync_generation] first. *)
let name_hit t n =
  Metrics.incr t.m_name_hit;
  Kernel.charge t.kernel t.c_gen_check;
  n

let name_miss t key =
  Metrics.incr t.m_name_miss;
  let final, st = resolve_final_ex t key in
  let n = { nc_final = final; nc_dir = Path.dirname final } in
  insert_bounded t t.names ~capacity:name_capacity ~evicted:"enforce.name.evict" key n;
  (n, st)

let name_entry t key =
  sync_generation t;
  match Paths.find t.names key with
  | n -> name_hit t n
  | exception Not_found -> fst (name_miss t key)

let resolve_final t path =
  let key = Path.normalize path in
  if t.caching then (name_entry t key).nc_final else fst (resolve_final_ex t key)

let governing_dir t path =
  let key = Path.normalize path in
  if t.caching then (name_entry t key).nc_dir
  else Path.dirname (fst (resolve_final_ex t key))

let read_acl_file t dir =
  let acl_path = Path.join dir acl_filename in
  match delegate t (Syscall.Open { path = acl_path; flags = Fs.rdonly; mode = 0 }) with
  | Error _ -> None
  | Ok (Syscall.Int fd) ->
    (* [read_to_end] joins the chunks once: with [acc ^ chunk] a large
       ACL costs O(n²) in host time, which the large-ACL bench case
       makes visible. *)
    let text = Kernel.read_to_end (delegate t) fd ~chunk:4096 in
    ignore (delegate t (Syscall.Close fd));
    (match text with
     | Error _ ->
       (* A read error part-way leaves a silently truncated text — and
          a truncated ACL can parse as a smaller but *valid* one.  Fail
          closed instead of granting from a partial list. *)
       Metrics.incr t.m_read_fail;
       Some Acl.empty
     | Ok text ->
       (match Acl.of_string text with
        | Ok acl -> Some acl
        | Error _ ->
          (* A corrupt ACL file grants nothing: fail closed. *)
          Some Acl.empty))
  | Ok _ -> None

let acl_token t dir =
  let acl_path = Path.join dir acl_filename in
  match delegate t (Syscall.Lstat acl_path) with
  | Ok (Syscall.Stat_v st) -> Some (st.Fs.st_ino, st.Fs.st_mtime)
  | Ok _ | Error _ -> None

let gen_token inode =
  Dir_gen
    (match inode with
     | Some d -> Some (Idbox_vfs.Inode.ino d, Idbox_vfs.Inode.acl_gen d)
     | None -> None)

(* [gen_token inode = token], without building the token. *)
let gen_token_holds token inode =
  match (token, inode) with
  | Dir_gen (Some (ino, gen)), Some d ->
    ino = Idbox_vfs.Inode.ino d && gen = Idbox_vfs.Inode.acl_gen d
  | Dir_gen None, None -> true
  | Dir_gen _, _ | Acl_attr _, _ -> false

(* A fresh ACL-cache entry for [dir] under this engine's mode, holding
   [acl] (computed by [acl_of] from the entry's token).  With caching on,
   the token check is charged one {!Cost.t.gen_check_ns}. *)
let fresh_entry t dir acl_of =
  if t.caching then begin
    Kernel.charge t.kernel t.c_gen_check;
    let inode = Fs.dir_inode t.fs dir in
    let token = gen_token inode in
    { token; acl = acl_of token; at_gen = t.names_gen; inode }
  end
  else
    let token = Acl_attr (acl_token t dir) in
    { token; acl = acl_of token; at_gen = -1; inode = None }

let read_if_present t dir = function
  | Acl_attr None -> None (* no ACL file *)
  | Dir_gen None -> None (* no such directory *)
  | Acl_attr (Some _) | Dir_gen (Some _) -> read_acl_file t dir

let store t dir entry =
  insert_bounded t t.cache ~capacity:acl_capacity ~evicted:"acl.cache.evict" dir
    entry

(* [None] while [c], the entry of [dir], is current; else the token
   that replaces it.  With caching on, the token is taken off the inode
   [dir] resolved to in the current generation: resolved now if the
   entry's inode is from an earlier one, kept for the next check
   otherwise. *)
let stale_token t dir c =
  if t.caching then begin
    Kernel.charge t.kernel t.c_gen_check;
    if c.at_gen <> t.names_gen then begin
      c.inode <- Fs.dir_inode t.fs dir;
      c.at_gen <- t.names_gen
    end;
    if gen_token_holds c.token c.inode then None else Some (gen_token c.inode)
  end
  else
    let token = Acl_attr (acl_token t dir) in
    if c.token = token then None else Some token

(* [dir] is normalized. *)
let dir_acl_of t dir =
  if t.caching then sync_generation t;
  match Paths.find t.cache dir with
  | c -> (
    match stale_token t dir c with
    | None ->
      Metrics.incr t.m_acl_hit;
      c.acl
    | Some token ->
      Metrics.incr t.m_acl_miss;
      c.token <- token;
      c.acl <- read_if_present t dir token;
      c.acl)
  | exception Not_found ->
    Metrics.incr t.m_acl_miss;
    let entry = fresh_entry t dir (read_if_present t dir) in
    store t dir entry;
    entry.acl

let dir_acl t dir = dir_acl_of t (Path.normalize dir)

let charge_acl_eval t acl =
  let cost = Kernel.cost t.kernel in
  let entries = Acl.length acl in
  Metrics.incr t.m_eval;
  Metrics.add t.m_eval_entries entries;
  Kernel.charge t.kernel
    (Int64.add cost.Cost.acl_check_base
       (Int64.mul (Int64.of_int entries) cost.Cost.acl_check_entry))

(* Unix-permission fallback: the visitor is evaluated as [nobody]
   against the object's stat. *)
let nobody_allows_stat (st : Fs.stat) right =
  let check access =
    Perm.check ~uid:Account.nobody_uid ~owner:st.Fs.st_uid ~mode:st.Fs.st_mode
      access
  in
  match right with
  | Right.Read | Right.List -> check Perm.R
  | Right.Write | Right.Delete -> check Perm.W
  | Right.Execute -> check Perm.X
  | Right.Admin -> false

let stat_of t path =
  match delegate t (Syscall.Lstat path) with
  | Ok (Syscall.Stat_v st) -> Some st
  | Ok _ | Error _ -> None

let acl_verdict t acl ~identity right =
  charge_acl_eval t acl;
  if Acl.check acl identity right then Ok () else Error Errno.EACCES

let nobody_verdict st right =
  match st with
  | Some st when nobody_allows_stat st right -> Ok ()
  | Some _ | None -> Error Errno.EACCES

let check_in_dir t ~identity ~dir right =
  let dir = Path.normalize dir in
  match bytecode_consult t (`Dir dir) ~identity right with
  | Some verdict -> verdict
  | None -> (
    match dir_acl_of t dir with
    | Some acl -> acl_verdict t acl ~identity right
    | None -> nobody_verdict (stat_of t dir) right)

(* The object resolved to [final] in [dir].  Without an ACL, [nobody] is
   judged against the object itself when it exists, else against the
   directory that would contain it.  [st] is the final stat when this
   check resolved the name; after a name-cache hit it is unknown
   ([known] is false) and fetched lazily, while after a fresh resolve
   [None] already proved the object absent. *)
let check_resolved t ~identity ~final ~dir ~st ~known right =
  if is_acl_file final then Error Errno.EACCES
  else
    match dir_acl_of t dir with
    | Some acl -> acl_verdict t acl ~identity right
    | None ->
      let st =
        match st with
        | Some _ -> st
        | None when known -> stat_of t dir
        | None -> (match stat_of t final with Some s -> Some s | None -> stat_of t dir)
      in
      nobody_verdict st right

let check_object_interp t ~identity ~key right =
  if t.caching then begin
    sync_generation t;
    match Paths.find t.names key with
    | n ->
      let n = name_hit t n in
      check_resolved t ~identity ~final:n.nc_final ~dir:n.nc_dir ~st:None
        ~known:false right
    | exception Not_found ->
      let n, st = name_miss t key in
      check_resolved t ~identity ~final:n.nc_final ~dir:n.nc_dir ~st ~known:true
        right
  end
  else
    let final, st = resolve_final_ex t key in
    check_resolved t ~identity ~final ~dir:(Path.dirname final) ~st ~known:true
      right

(* An ACL file is reachable only through getacl and setacl.  It is
   refused by name before any tier answers, and again after the symlink
   chain is followed, so a link planted next to it (or anywhere else)
   cannot read or rewrite it. *)
let check_object t ~identity ~path right =
  let key = Path.normalize path in
  if is_acl_file key then Error Errno.EACCES
  else
    match bytecode_consult t (`Object key) ~identity right with
    | Some verdict -> verdict
    | None -> check_object_interp t ~identity ~key right

let reserve_in_dir t ~identity ~dir =
  match dir_acl t dir with
  | None -> None
  | Some acl ->
    charge_acl_eval t acl;
    Acl.reserve_for acl identity

let invalidate t ~dir =
  let dir = Path.normalize dir in
  Metrics.incr t.m_acl_inval;
  Paths.remove t.cache dir

let write_acl t ~dir acl =
  let dir = Path.normalize dir in
  let acl_path = Path.join dir acl_filename in
  let text = Acl.to_string acl in
  let flags = Fs.wronly_create in
  match delegate t (Syscall.Open { path = acl_path; flags; mode = 0o600 }) with
  | Error e -> Error e
  | Ok (Syscall.Int fd) ->
    let write_res = delegate t (Syscall.Write { fd; data = text }) in
    ignore (delegate t (Syscall.Close fd));
    (match write_res with
     | Ok _ ->
       (* Re-prime with a post-write token: the open bumped the
          directory's ACL generation, so the fresh ACL is served from
          cache. *)
       if t.caching then sync_generation t;
       store t dir (fresh_entry t dir (fun _ -> Some acl));
       (* The open bumped the policy generation too: the program is
          rebuilt lazily, once, at the next check. *)
       Ok ()
     | Error e -> Error e)
  | Ok _ -> Error Errno.EINVAL

(* ------------------------------------------------------------------ *)
(* Delegation chains.                                                  *)

let reject_chain t failure =
  Metrics.incr
    (Metrics.counter (Kernel.metrics t.kernel)
       ("auth.delegation.reject." ^ Delegation.failure_name failure));
  Error failure

let admit_ok t summary =
  Metrics.incr t.m_deleg_ok;
  Ok summary

(* Cold validation pays one {!Cost.t.chain_hop_ns} per hop — the keyed
   digest recompute plus structural checks; a memo hit pays one
   generation check, exactly like the name and ACL caches. *)
let validate_cold t ~trusted ~revocations ~now ~holder chain =
  Kernel.charge t.kernel
    (Int64.mul (Int64.of_int (List.length chain)) t.c_chain_hop);
  Delegation.validate ~trusted ~revocations ~now ~holder chain

let admit_chain t ~trusted ~revocations ~now ~holder chain =
  if not t.caching then (
    match validate_cold t ~trusted ~revocations ~now ~holder chain with
    | Ok s -> admit_ok t s
    | Error f -> reject_chain t f)
  else
    let key = Delegation.chain_key ~holder chain in
    let gen = Delegation.Revocations.generation revocations in
    match Hashtbl.find_opt t.chains key with
    | Some m when m.cc_gen = gen ->
      Kernel.charge t.kernel t.c_gen_check;
      if Expiry.valid_at ~now ~expires:m.cc_summary.Delegation.sum_expires
      then begin
        Metrics.incr t.m_chain_hit;
        admit_ok t m.cc_summary
      end
      else begin
        (* Time, unlike revocation, invalidates silently: drop the memo
           so the next presentation re-pays the cold path. *)
        Hashtbl.remove t.chains key;
        reject_chain t Delegation.F_expired
      end
    | Some _ | None ->
      Metrics.incr t.m_chain_miss;
      (match validate_cold t ~trusted ~revocations ~now ~holder chain with
       | Ok s ->
         Hashtbl.replace t.chains key { cc_gen = gen; cc_summary = s };
         admit_ok t s
       | Error f -> reject_chain t f)

(* After a crash-recovery the revocation store is rebuilt from stable
   storage and its generation counter restarts: a pre-crash memo could
   coincidentally validate against an unrelated generation value.  The
   recovering server drops the memo outright — fail-closed and cheap. *)
let drop_chains t = Hashtbl.reset t.chains
