(** The kernel's tracing hook: the simulated analogue of [ptrace]'s
    syscall-stop protocol.

    A traced process stops at every system call entry and exit; the
    tracer may rewrite the call at entry (in particular, {e nullify} it
    into a harmless [getpid], the canonical interposition move of
    Fig. 4) and replace the result at exit.  Children of a traced
    process are traced by the same handler, so nothing escapes the box
    by forking.

    The handler callbacks are host-level code; the context-switch and
    data-movement prices a real userspace supervisor would pay are
    charged to the simulated clock by the kernel and by the
    {!Idbox_ptrace} veneer. *)

type entry_action =
  | Pass  (** Let the original call proceed. *)
  | Rewrite of Syscall.request
      (** Replace the call — e.g. nullify to [Getpid], or redirect a
          [read] into the I/O channel. *)
  | Deny of Idbox_vfs.Errno.t
      (** Nullify and fail with the given errno without executing
          anything (the "side effects of denying" pitfall: any return
          value, including [EACCES], can be injected). *)

type exit_action =
  | Keep  (** Keep the executed call's result. *)
  | Replace of Syscall.result  (** Inject a different result. *)

type event =
  | Spawned of { pid : int; parent : int }
      (** A traced process created [pid]; it is traced too. *)
  | Exited of { pid : int; code : int }

type handler = {
  on_entry : pid:int -> Syscall.request -> entry_action;
  on_exit : pid:int -> Syscall.request -> Syscall.result -> exit_action;
  on_event : event -> unit;
}

val pass_through : handler
(** A do-nothing tracer: every call passes, every result keeps.  Useful
    for measuring bare trap overhead. *)

(** {1 Structured trace spans}

    Orthogonal to the syscall-stop protocol above: a bounded ring of
    structured records, one per serviced system call, that the kernel
    (and any instrumented layer) appends to.  The ring never grows —
    once full, the oldest span is overwritten and counted in
    {!dropped} — so tracing is safe to leave on in long runs.

    The ring keeps its spans as columns: the identity, syscall and
    verdict strings by reference, the pid, and the time and cost as
    64-bit words.  Recording a span allocates nothing; {!span} records
    are built only when the ring is read ({!iter}, {!to_list},
    {!to_json}). *)

type span = {
  sp_seq : int;  (** Monotonic record sequence number (0-based). *)
  sp_time : int64;  (** Simulated clock at syscall entry, ns. *)
  sp_pid : int;
  sp_identity : string;  (** Acting principal, or ["-"] when unknown. *)
  sp_syscall : string;
  sp_verdict : string;  (** ["ok"] or an errno name, e.g. ["EACCES"]. *)
  sp_cost_ns : int64;  (** Simulated time charged to the call. *)
}

type ring

val default_capacity : int
(** 1024 spans. *)

val ring : ?capacity:int -> unit -> ring
(** A fresh ring.  [capacity] is clamped to at least 1.  The column
    storage is allocated lazily on the first span. *)

val capacity : ring -> int

val total : ring -> int
(** Spans ever recorded (including overwritten ones). *)

val length : ring -> int
(** Spans currently retained, [<= capacity]. *)

val dropped : ring -> int
(** [total - length]: spans overwritten by wraparound. *)

val span :
  ring ->
  time:int64 ->
  pid:int ->
  identity:string ->
  syscall:string ->
  verdict:string ->
  cost_ns:int64 ->
  unit
(** Record a span, assigning it the next sequence number: the fields
    are written into the ring's columns in place. *)

val iter : ring -> (span -> unit) -> unit
(** Oldest retained span first. *)

val to_list : ring -> span list
(** Retained spans, oldest first. *)

val reset : ring -> unit
(** Drop all spans and the sequence count. *)

val span_json : span -> string
(** One span as a JSON object. *)

val to_json : ring -> string
(** [{"capacity":..,"total":..,"dropped":..,"spans":[..]}], spans
    oldest first. *)

val pp_span : Format.formatter -> span -> unit
