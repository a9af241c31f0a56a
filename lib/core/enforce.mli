(** The identity box's access-control engine.

    Every check answers one question: does {e identity} hold {e right}
    in the directory that governs {e path}?  The governing directory is
    found the way §6 of the paper demands (Garfinkel pitfall #2,
    "overlooking indirect paths"): if the object is a symbolic link, the
    link is followed and the {e target}'s directory is examined instead,
    so a link planted in a permissive directory cannot launder access to
    a protected one.

    ACLs are stored as [.__acl] files inside each directory and read
    through {e delegated} system calls (the supervisor's own I/O, charged
    to the clock); parsed ACLs are cached per directory and invalidated
    on every ACL write.  A directory with no ACL falls back to Unix
    permissions evaluated as the user [nobody] — the rule that protects
    the supervising user's pre-existing files from visitors.

    With caching on (the default), two generation-validated caches
    serve the warm path with {e zero} delegated syscalls, dcache-style:
    a name cache (the canonical path of a full resolution and its
    governing directory, valid while the global VFS mutation generation
    {!Idbox_vfs.Fs.generation} stands still) and the per-directory ACL
    cache (validated against the governing directory's (ino, ACL
    generation) instead of a delegated [Lstat] of the ACL file; content
    writes and plain-file churn leave it valid).  An ACL-cache entry
    also keeps the inode its directory resolved to in the current
    generation, so a warm check — of an object or of a directory —
    takes that token straight off the inode, with no re-walk of the
    path from "/".  Each warm hit charges one
    {!Idbox_kernel.Cost.t.gen_check_ns}; the cached ACL is then
    evaluated (charged {!Idbox_kernel.Cost.t.acl_check_base} plus
    {!Idbox_kernel.Cost.t.acl_check_entry} per entry), its matcher
    memoizing each principal's effective rights.  Verdicts are
    byte-identical to the uncached engine: the VFS bumps a generation on
    every mutation that could change an answer.  Hit/miss counters:
    [acl.cache.*], [enforce.name.*].

    The tables are bounded.  The name cache and the {!canonical_parents}
    memo hold one generation's entries and are emptied when it moves;
    each is also flushed at 8,192 entries, and the ACL cache (which
    keeps its own token, so that it outlives plain-file churn) at 1,024
    directories.  Flushed entries are resolved again; the discarded ones
    are counted in [enforce.name.evict], [enforce.canon.evict] and
    [acl.cache.evict], registered at the first eviction. *)

type t

val create :
  ?in_kernel:bool ->
  ?caching:bool ->
  ?bytecode:bool ->
  Idbox_kernel.Kernel.t ->
  supervisor:Idbox_kernel.View.t ->
  unit ->
  t
(** With [~in_kernel:true] (the Fig. 6 ablation) the engine's own I/O is
    charged at direct kernel cost — no supervisor context switches.
    With [~caching:false] every check revalidates through delegated
    syscalls (the pre-cache behaviour the Fig. 5(b) and Fig. 6
    apparatus pins).  [bytecode] (default: the [caching] value)
    enables the compiled-policy fast path: checks consult the installed
    {!Idbox_kernel.Policy} program before any cache or interpreter work
    and charge only {!Idbox_kernel.Cost.t.bytecode_check_ns} when it
    answers.  Pin [~bytecode:false] to exercise the caches and the
    interpreter on their own. *)

(** {1 Compiled-policy bytecode}

    The box's reachable ACL set, compiled by {!Policy_compile} into a
    verified decision program and consulted at syscall entry before the
    interpreter.  The program is keyed on
    {!Idbox_vfs.Fs.policy_generation}, not on the global generation the
    name cache uses: creating, unlinking or renaming a plain file cannot
    change a verdict (the directory's ACL governs the file either way),
    so such churn leaves the program resident.  Any other namespace or
    ACL mutation makes it stale; the next check falls back to the
    interpreter and triggers one recompile (charged
    {!Idbox_kernel.Cost.t.bytecode_compile_ns}, latched per policy
    generation).  There is no eager recompile — an ACL write, local or
    replicated, only makes the program stale.  A program the verifier
    rejects is never installed — the engine fails closed to the
    interpreter, and the rejection is latched until the policy
    generation moves again.  Counters:
    [kernel.bytecode.{hit,stale,fallback,recompile,reject}]. *)

val refresh_bytecode : t -> unit
(** Ensure the resident program matches the current policy generation,
    compiling if needed.  Chirp servers call this when a session
    authenticates and {!Box.spawn_main} before a boxed process starts,
    so their first checks are already on the fast path.  No-op when
    bytecode is disabled. *)

val bytecode_program : t -> Idbox_kernel.Policy.t option
(** This engine's resident program, if any — for stats and tests.  The
    kernel's single {!Idbox_kernel.Kernel.policy} slot holds the last
    program {e any} engine on that kernel installed (a World's members
    share one kernel), so it can differ from this one. *)

val set_bytecode_tamper :
  t -> (Idbox_kernel.Policy.t -> Idbox_kernel.Policy.t) option -> unit
(** Test hook: corrupt every freshly compiled program before
    verification (and drop the resident one), to prove the verifier
    rejects and the engine keeps answering via the interpreter. *)

val canonical_parents : t -> string -> string
(** Resolve every {e ancestor} symlink of [path] (the final component is
    left alone): the path the object's directory really is.  Without
    this, a visitor could plant [~/sub -> /home/victim] and smuggle
    operations through [~/sub/...] — the checker would consult the ACL
    of the lexical parent while the kernel acted on the target (the
    ancestor flavour of Garfinkel pitfall #2).  Every trapped path is
    canonicalized through here before checking {e and} acting, so both
    always name the same object.

    Cost: one name-cache component charge per step of
    {!Idbox_vfs.Fs.canonical_parents} — the supervisor, like a kernel,
    keeps the directory structure of paths it has resolved in memory
    (Parrot "may be thought of as an augmented operating system", §3).
    With caching on, the answer is memoized for the current
    {!Idbox_vfs.Fs.generation} and a memoized answer is charged the
    same steps. *)

val resolve_final : t -> string -> string
(** Follow the symlink chain of [path] itself (bounded depth) to the
    path the object really lives at; identity on non-links and dangling
    tails.  Ancestors are assumed canonical (see {!canonical_parents}). *)

val governing_dir : t -> string -> string
(** The directory whose ACL governs the object at [path]:
    [dirname (resolve_final path)]. *)

val dir_acl : t -> string -> Idbox_acl.Acl.t option
(** The (cached) ACL of a directory, [None] when the directory carries
    no ACL file. *)

val check_in_dir :
  t ->
  identity:Idbox_identity.Principal.t ->
  dir:string ->
  Idbox_acl.Right.t ->
  (unit, Idbox_vfs.Errno.t) result
(** Does [identity] hold the right in [dir]?  With an ACL: ACL decides.
    Without: Unix permissions as [nobody] against [dir] itself
    (read/list → r, write/delete → w, execute → x, admin → denied). *)

val check_object :
  t ->
  identity:Idbox_identity.Principal.t ->
  path:string ->
  Idbox_acl.Right.t ->
  (unit, Idbox_vfs.Errno.t) result
(** Check against the governing directory of [path]; the [nobody]
    fallback is evaluated against the object itself when it exists
    (so an un-ACL'd but world-readable file stays readable, and the
    supervisor's 0600 [secret] stays private, exactly as in Fig. 2).
    An ACL file is refused ([EACCES]) for every right: when [path]
    names one, and when its final symlink chain lands on one. *)

val reserve_in_dir :
  t ->
  identity:Idbox_identity.Principal.t ->
  dir:string ->
  Idbox_acl.Rights.t option
(** The reserve grant [v(...)] available to [identity] in [dir], if any:
    the rights table's [mkdir] asks it before the write right. *)

val write_acl :
  t -> dir:string -> Idbox_acl.Acl.t -> (unit, Idbox_vfs.Errno.t) result
(** Install a directory's ACL file (supervisor-side write) and refresh
    the ACL cache.  The compiled program goes stale and is rebuilt at
    the next check. *)

val invalidate : t -> dir:string -> unit
(** Drop the cached ACL for one directory. *)

val acl_filename : string
(** Re-export of {!Idbox_acl.Acl.filename} for dispatch-layer filtering. *)

val is_acl_file : string -> bool
(** Does the normal path ({!Idbox_vfs.Path.is_normal}, as every
    canonicalised path is) name an ACL file: is its last component
    {!acl_filename}?  The {!Rights_table}'s name guard. *)

val admit_chain :
  t ->
  trusted:Idbox_auth.Ca.t list ->
  revocations:Idbox_auth.Delegation.Revocations.t ->
  now:int64 ->
  holder:string ->
  Idbox_auth.Delegation.chain ->
  (Idbox_auth.Delegation.summary, Idbox_auth.Delegation.failure) result
(** Validate a delegation chain presented by the authenticated [holder],
    memoized through the same generation-validated shape as the other
    caches: the key covers every stamp in the chain plus the holder, and
    a memo is valid while the {!Idbox_auth.Delegation.Revocations}
    generation is unchanged {e and} the summary is unexpired
    ({!Idbox_auth.Expiry} rule against the earliest hop expiry).  A cold
    validation charges one {!Idbox_kernel.Cost.t.chain_hop_ns} per hop;
    a warm hit charges one {!Idbox_kernel.Cost.t.gen_check_ns}.  Only
    successful verdicts are memoized — every rejection re-validates from
    scratch, fail-closed.  Counters: [enforce.chain.hit],
    [enforce.chain.miss], [auth.delegation.ok],
    [auth.delegation.reject.<reason>]. *)

val drop_chains : t -> unit
(** Drop every memoized chain verdict.  A recovering server calls this
    after rebuilding its revocation store, whose fresh generation
    counter could otherwise coincidentally validate a pre-crash memo. *)
