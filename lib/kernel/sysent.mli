(** Table-driven syscall dispatch, modeled on DragonFly BSD's
    [sysent]/[sysmsg] pair: a per-call table entry carrying the
    handler, its register arity, and an enforcement pre-check hook; and
    a per-invocation message that either completes synchronously or
    parks with a completion token and is completed by a later wakeup.

    Generic in the handler context ['ctx] (the kernel passes a PCB) and
    outcome ['outcome], so the table can be built per kernel instance
    and exercised in isolation by tests. *)

(** What the pre-check decides: run the handler, fail the call with an
    errno, or deliver a result it made itself, without the handler. *)
type verdict =
  | Allow
  | Deny of Idbox_vfs.Errno.t
  | Answer of Syscall.value

type ('ctx, 'outcome) entry = {
  se_number : int;  (** Stable syscall number; the table index. *)
  se_name : string;
  se_narg : int;  (** Argument registers at the trap boundary. *)
  se_enforce : ('ctx -> Syscall.request -> verdict) option;
      (** Pre-check run on the entry path before the handler; [None]
          for calls that never trap. *)
  se_call : 'ctx -> Syscall.request -> 'outcome;
}

val entry :
  number:int ->
  name:string ->
  narg:int ->
  ?enforce:('ctx -> Syscall.request -> verdict) ->
  ('ctx -> Syscall.request -> 'outcome) ->
  ('ctx, 'outcome) entry

val table :
  count:int -> (int -> ('ctx, 'outcome) entry) -> ('ctx, 'outcome) entry array
(** [table ~count make] builds [[| make 0; ...; make (count-1) |]],
    raising [Invalid_argument] if any entry's number disagrees with its
    slot — a misnumbered sysent is a kernel bug. *)

val dispatch :
  ('ctx, 'outcome) entry array -> Syscall.request -> ('ctx, 'outcome) entry
(** The entry for a request, by its {!Syscall.number}. *)

(** {1 Sysmsg} *)

type 'outcome state =
  | Pending
  | Completed of 'outcome

type 'outcome sysmsg = {
  sm_number : int;
  sm_name : string;
  sm_pid : int;
  sm_submitted_ns : int64;
  mutable sm_state : 'outcome state;
}

val msg : pid:int -> at:int64 -> ('ctx, _) entry -> 'outcome sysmsg
(** A fresh pending message for one invocation of [entry]. *)

val complete : 'outcome sysmsg -> 'outcome -> bool
(** Complete exactly once: [true] when this call completed the message,
    [false] when it had already completed (a late wakeup). *)

val is_pending : _ sysmsg -> bool
val outcome : 'outcome sysmsg -> 'outcome option
