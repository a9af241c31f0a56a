(** In-kernel identity boxing: the paper's future-work proposal
    (§9, Figure 6) as an LSM-style kernel module.

    Where {!Box} traps every system call through a userspace supervisor
    — paying context switches, register peek/poke, and channel copies —
    a [Kbox] registers a security hook {e inside} the kernel: processes
    run untraced, and [get_user_name] is answered by an in-kernel
    identity table keyed by pid (children inherit their parent's
    identity through the process tree).  The hook asks the same
    {!Rights_table} as the box, at direct kernel cost: it allows or
    denies every call, and answers [mkdir] (the reserve right included),
    [rmdir], [readdir], [getacl] and [setacl] itself through the table's
    ACL side effects, which the stock kernel does not know.  The Fig. 6
    ablation runs identical workloads under {!Box} and under [Kbox] to
    quantify what moving identity boxing into the OS would save.

    Prototype limits (the paper's "open issues for future work"): one
    [Kbox] per kernel, and no [/etc/passwd] redirection. *)

type t

val install :
  Idbox_kernel.Kernel.t ->
  supervisor_uid:int ->
  ?caching:bool ->
  ?bytecode:bool ->
  unit ->
  t
(** Register the security hook and identity provider on a kernel,
    replacing any previously installed ones.  [caching] (default true)
    toggles the engine's generation-validated caches and [bytecode]
    (default: the [caching] value) the compiled-policy fast path, as in
    {!Idbox.Enforce.create}. *)

val uninstall : t -> unit
(** Remove the hook and provider. *)

val spawn :
  t ->
  identity:Idbox_identity.Principal.t ->
  path:string ->
  args:string list ->
  unit ->
  (int, Idbox_vfs.Errno.t) result
(** Run an executable in a kernel-level protection domain labelled with
    [identity].  The identity must hold the execute right on the
    program. *)

val spawn_main :
  t ->
  identity:Idbox_identity.Principal.t ->
  main:Idbox_kernel.Program.main ->
  args:string list ->
  int
(** Closure flavour, for tests and benches. *)

val identity_of : t -> int -> Idbox_identity.Principal.t option
(** The identity a pid runs under (inherited through the process tree). *)

val enforcer : t -> Enforce.t
(** The (in-kernel mode) enforcement engine, e.g. for installing ACLs. *)

(** {1 The hierarchical namespace (Figure 6)}

    Every identity a [Kbox] hosts is a node in a {!Idbox_identity.Hierarchy}
    under [root:<operator>:grid], giving the management relationships the
    paper describes: the operator's domain manages every visitor, and
    {!retire} of any subtree terminates the protection domains under it
    ("a tree of identities allows every user to create protection domains
    as needed" — and to take them away). *)

val namespace : t -> Idbox_identity.Hierarchy.t

val domain_of :
  t -> Idbox_identity.Principal.t -> Idbox_identity.Hierarchy.domain option
(** The domain hosting an identity (created at its first spawn). *)

val retire : t -> full_name:string -> (int, string) result
(** Delete the named domain and its whole subtree; every live process
    whose identity lives under it is killed (SIGKILL), and those
    identities are no longer admitted.  Returns the number of processes
    terminated. *)
