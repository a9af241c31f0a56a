(** The identity box (paper §3): a secure execution space in which every
    process and resource is associated with a high-level identity string
    rather than a local account.

    A box is created by any user — the {e supervising user} — with no
    privilege and no reference to the account database.  Processes run
    inside it under the supervising user's Unix uid, but every system
    call is trapped by the box's supervisor, which enforces ACLs under
    the {e visiting identity}, redirects [/etc/passwd] to a private copy
    naming the visitor, answers [get_user_name] with the identity,
    confines signals to the box, and extends the namespace with remote
    mounts.  One Unix account may operate many boxes at once; within the
    box the supervisor is effectively root with respect to the visitor.

    Cost: every trapped call pays the Fig. 4 price — context switches,
    register PEEK/POKE, and for bulk I/O one extra copy through the I/O
    channel.  These charges are applied by the kernel and the
    {!Idbox_ptrace} layer; the enforcement work itself (delegated I/O to
    read ACL files, ACL evaluation) is charged by {!Enforce}. *)

type t

val create :
  Idbox_kernel.Kernel.t ->
  supervisor_uid:int ->
  identity:Idbox_identity.Principal.t ->
  ?mounts:(string * Remote.t) list ->
  ?small_io_threshold:int ->
  ?audit:bool ->
  ?caching:bool ->
  ?bytecode:bool ->
  unit ->
  (t, Idbox_vfs.Errno.t) result
(** Build a box: creates the per-box working area under [/tmp] (fresh
    home directory with an owner ACL for the identity, private
    [/etc/passwd] copy with the visitor prepended), the I/O channel, and
    the trap handler.  [mounts] attaches remote drivers under path
    prefixes (e.g. [("/chirp/alpha", driver)]).  [small_io_threshold]
    (default 512 bytes) is the cutoff between PEEK/POKE data movement
    and the I/O channel.  [audit] enables the forensic trail (§9);
    read it with {!audit_trail}.  [caching] (default true) toggles the
    enforcement engine's generation-validated caches (see
    {!Idbox.Enforce.create}). *)

val identity : t -> Idbox_identity.Principal.t
val identity_string : t -> string
val home : t -> string
(** The visitor's fresh home directory. *)

val base : t -> string
(** The per-box working area ([/tmp/box_N]). *)

val handler : t -> Idbox_kernel.Trace.handler
(** The trap handler; attach it to processes that should live in the
    box (both {!spawn} entry points do this). *)

val supervisor_view : t -> Idbox_kernel.View.t
(** The supervisor's own execution context — how host-level code stages
    files or adjusts ACLs "as the supervising user". *)

val enforcer : t -> Enforce.t

val kernel : t -> Idbox_kernel.Kernel.t

val spawn :
  t ->
  ?check_exec:bool ->
  path:string ->
  args:string list ->
  unit ->
  (int, Idbox_vfs.Errno.t) result
(** Run the executable at [path] inside the box.  With [check_exec]
    (the default) the visiting identity must hold the execute right on
    the program — the Chirp remote-exec rule; pass [false] when the
    supervising user starts a program of their own choosing. *)

val spawn_main :
  t -> main:Idbox_kernel.Program.main -> args:string list -> int
(** Run a closure inside the box (tests, interactive sessions). *)

val member : t -> int -> bool
(** Is the pid currently a process of this box? *)

val audit_trail : t -> Audit.t option
(** The forensic trail, when the box was created with [~audit:true]:
    every object-naming operation the visitor attempted, with the box's
    verdict.  Supervisor-side state the visitor cannot reach. *)

val set_cwd : t -> pid:int -> string -> unit
(** Set a boxed process's working directory (used by remote [exec] to
    start a program in its staged directory).  No-op for non-members. *)

val set_acl :
  t -> dir:string -> Idbox_acl.Acl.t -> (unit, Idbox_vfs.Errno.t) result
(** Supervisor-side ACL installation (no admin-right check: the
    supervising user is omnipotent over the box). *)

val grant :
  t ->
  dir:string ->
  pattern:string ->
  Idbox_acl.Rights.t ->
  (unit, Idbox_vfs.Errno.t) result
(** Supervisor-side convenience: add rights for a principal pattern to a
    directory's ACL. *)
