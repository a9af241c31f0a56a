(** The simulated kernel: processes, system call service, tracing, and
    the simulated clock.

    One [Kernel.t] models one host.  Host-level code (tests, servers,
    interposition agents) creates processes with {!spawn} or
    {!spawn_main}, then calls {!run} to drive the machine to quiescence.
    Simulated programs interact only through the {!Program.Sys} effect,
    which the scheduler services — passing traced processes' calls
    through their {!Trace.handler} first, and charging every action to
    the clock according to the {!Cost} model. *)

type t

type stats = {
  mutable syscalls : int;  (** System calls serviced (excludes [Compute]). *)
  mutable trapped : int;  (** Calls that stopped at a tracer. *)
  mutable context_switches : int;  (** Switches charged for trapping. *)
  mutable delegated : int;  (** Supervisor-made calls ({!delegate}). *)
  mutable peek_poke_words : int;  (** Words moved via PEEK/POKE. *)
  mutable channel_bytes : int;  (** Bytes copied through the I/O channel. *)
  mutable spawns : int;
}

val create : ?cost:Cost.t -> ?clock:Clock.t -> unit -> t
(** A fresh host: empty process table, clock at 0, a fresh account
    database ({!Account.create}), and a filesystem populated with
    [/etc/passwd] (rendered from the account database),
    [/tmp] (world-writable), [/home], and [/bin].  Pass a shared [clock]
    to place several hosts in one simulated world (distributed
    experiments measure one coherent timeline). *)

val clock : t -> Clock.t
val now : t -> int64
val fs : t -> Idbox_vfs.Fs.t
val accounts : t -> Account.t
val cost : t -> Cost.t
val stats : t -> stats

val metrics : t -> Metrics.t
(** The kernel-wide metrics registry.  The kernel itself records
    [syscall.<name>] counters and [syscall.<name>.ns] simulated-latency
    histograms for every serviced call; supervisor layers (enforcement,
    boxes, the Chirp server) add their own counters here so one
    registry describes the whole stack. *)

val trace_ring : t -> Trace.ring
(** The bounded ring of structured trace spans, one per completed
    system call. *)

val add_user : t -> string -> (Account.entry, string) result
(** The [useradd -m] of the simulation: create the account, its home
    directory (owner-owned, mode 0755), and refresh [/etc/passwd]. *)

val refresh_passwd : t -> unit
(** Re-render [/etc/passwd] from the account database (schemes that add
    accounts at runtime call this, as [useradd] would). *)

val charge : t -> int64 -> unit
(** Advance the clock: used by supervisors for work the kernel cannot
    see (ACL evaluation, memcpy into the channel). *)

val note_peek_poke : t -> words:int -> unit
(** Charge and account PEEK/POKE data movement. *)

val note_channel_copy : t -> bytes:int -> unit
(** Charge and account a supervisor-side copy through the I/O channel. *)

(** {1 Supervisor-side execution} *)

val make_view : t -> uid:int -> ?cwd:string -> unit -> View.t
(** A host-level execution context (the supervisor's own uid, cwd and
    descriptor table). *)

val execute : t -> View.t -> Syscall.request -> Syscall.result
(** Execute a file-level system call directly against a view, charging
    its direct cost.  Process-management calls ([spawn], [waitpid],
    [exit], [kill], [getpid]) return [ENOSYS] here — supervisors use the
    host-level API below for those. *)

val delegate : t -> View.t -> Syscall.request -> Syscall.result
(** {!execute}, plus the two context switches a userspace supervisor
    pays to enter and leave the kernel for its own call. *)

val read_to_end :
  (Syscall.request -> Syscall.result) -> int -> chunk:int ->
  (string, Idbox_vfs.Errno.t) result
(** [read_to_end call fd ~chunk] issues [Read { fd; len = chunk }]
    through [call] until one returns no data, and returns what was
    read.  A file that arrives in one chunk comes back as that chunk,
    uncopied; a longer one is joined once.  Stops at the first error,
    and answers [EINVAL] to a reply that is not data. *)

(** {1 Processes} *)

val spawn :
  t ->
  ?parent:int ->
  ?uid:int ->
  ?cwd:string ->
  ?env:(string * string) list ->
  ?tracer:Trace.handler ->
  path:string ->
  args:string list ->
  unit ->
  (int, Idbox_vfs.Errno.t) result
(** Create a process from an executable file: the file must resolve, be
    regular, carry execute permission for [uid], and contain a
    {!Program.marker} naming a registered program.  The tracer (explicit,
    or inherited from a traced parent) is installed before the first
    instruction runs. *)

val spawn_main :
  t ->
  ?parent:int ->
  ?uid:int ->
  ?cwd:string ->
  ?env:(string * string) list ->
  ?tracer:Trace.handler ->
  main:Program.main ->
  args:string list ->
  unit ->
  int
(** Create a process directly from a closure, bypassing the filesystem
    (used by tests and by the identity box to start a visitor's shell). *)

val run : t -> unit
(** Drive the machine until no process is runnable.  Processes blocked in
    [waitpid] whose children are all gone receive [ECHILD] rather than
    deadlocking; a genuinely stuck configuration simply leaves the
    waiters in place (inspect with {!process_states}). *)

val status : t -> int -> [ `Alive of string | `Exited of int | `Unknown ]
(** Scheduler state of a pid: [`Alive] carries the state name, [`Exited]
    the exit code of a zombie or reaped process. *)

val exit_code : t -> int -> int option
(** The exit status, once a process has exited. *)

val release : t -> int -> unit
(** Remove an exited process that no parent can wait for (already
    reaped, or its parent is gone or exited) from the process table;
    afterwards its pid is unknown.  A no-op for a live process, for a
    zombie whose parent is alive, and for an unknown pid.  Callers that
    read {!exit_code} directly (a remote exec) call this after it. *)

val kill : t -> pid:int -> signal:int -> (unit, Idbox_vfs.Errno.t) result
(** Host-level kill (used by supervisors enforcing signal policy):
    terminates the target with status [128 + signal]. *)

val parent_of : t -> int -> int option
(** The parent pid of a known process. *)

val process_view : t -> int -> View.t option
(** The view of a live process — supervisors use this to inject the I/O
    channel descriptor into their tracees. *)

val set_tracer : t -> int -> Trace.handler option -> unit
(** Attach or detach a tracer (attach-at-spawn is the common path). *)

val process_states : t -> (int * string) list
(** [(pid, state)] pairs, sorted by pid; for diagnostics and tests. *)

(** {1 In-kernel enforcement hooks}

    The paper's conclusion proposes moving identity boxing into the
    operating system proper (Figure 6).  These two hooks are that
    proposal: an LSM-style security module consulted before every
    (untraced) system call, and an identity provider backing
    [get_user_name] — both running at kernel cost, with no context
    switches and no data copies.  The Fig. 6 ablation compares a box
    built on these hooks against the ptrace-style agent. *)

type security_hook = pid:int -> View.t -> Syscall.request -> Sysent.verdict
(** Allow a call, deny it with an errno, or answer it with a result
    before it executes.  A denied or answered call is delivered like any
    completed one — counted, timed into its [syscall.<name>.ns]
    histogram, spanned — and the kernel's handler does not run; a hook
    that answers pays for its own work (e.g. through {!execute}).
    Consulted only for untraced processes (traced ones answer to their
    supervisor instead). *)

val set_security_hook : t -> security_hook option -> unit

val set_identity_provider : t -> (int -> string option) option -> unit
(** When set, [get_user_name] for pid [p] returns the provider's answer
    (falling back to the account name when the provider returns [None]). *)

val set_policy : t -> Policy.t option -> unit
(** Install (or clear) the compiled-policy bytecode program the
    security hook's enforcement engine consults at syscall entry.
    Owned by the engines: each installs after a successful compile +
    verify and clears on verifier rejection (fail closed to the
    interpreter).  There is one slot per kernel, so it holds the last
    program any engine on the kernel installed. *)

val policy : t -> Policy.t option
(** The currently resident program, if any — for [idbox stats] and
    tests. *)

(** {1 Sysent dispatch}

    System calls dispatch through a per-kernel {!Sysent} table: one
    entry per call carrying its handler, register arity, and the
    enforcement pre-check ([None] only for [compute], which never
    traps).  Each invocation is a sysmsg that completes synchronously
    or parks on a blocking call ([kernel.sysmsg.parked]) until a
    wakeup path completes it ([kernel.sysmsg.completed]) — exactly
    once; a second completion attempt is discarded and counted
    ([kernel.sysmsg.late]).  A parked invocation interrupted by a kill
    completes as [EINTR]. *)

val sysent_summary : t -> (int * string * int * bool) list
(** The dispatch table as [(number, name, narg, has_enforce)] rows in
    table order — for tests and diagnostics. *)

val with_fresh_programs : (unit -> 'a) -> 'a
(** Run a thunk with the (global) program registry saved and restored —
    test isolation. *)
