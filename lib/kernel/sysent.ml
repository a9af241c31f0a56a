(* Table-driven syscall dispatch, after DragonFly BSD's sysent/sysmsg:
   one entry per system call carrying its handler, register arity and
   an enforcement pre-check; one message per invocation that either
   completes synchronously or parks and is completed later by a wakeup
   path.  Generic in the handler context and outcome so the table can
   be built per kernel instance without circular dependencies. *)

type verdict =
  | Allow
  | Deny of Idbox_vfs.Errno.t
  | Answer of Syscall.value

type ('ctx, 'outcome) entry = {
  se_number : int;
  se_name : string;
  se_narg : int;  (* argument registers at the trap boundary *)
  se_enforce : ('ctx -> Syscall.request -> verdict) option;
      (* The pre-check run on the entry path before the handler; [None]
         marks calls that never trap (and so are never checked). *)
  se_call : 'ctx -> Syscall.request -> 'outcome;
}

let entry ~number ~name ~narg ?enforce call =
  { se_number = number; se_name = name; se_narg = narg;
    se_enforce = enforce; se_call = call }

(* Build a table from a numbering, verifying every entry sits at its
   own number — a misnumbered sysent is a kernel bug, not a value. *)
let table ~count make =
  let arr = Array.init count make in
  Array.iteri
    (fun i e ->
      if e.se_number <> i then
        invalid_arg
          (Printf.sprintf "Sysent.table: entry %S numbered %d at slot %d"
             e.se_name e.se_number i))
    arr;
  arr

let dispatch arr req = arr.(Syscall.number req)

(* --- sysmsg ----------------------------------------------------------- *)

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

let msg ~pid ~at e =
  { sm_number = e.se_number; sm_name = e.se_name; sm_pid = pid;
    sm_submitted_ns = at; sm_state = Pending }

(* Complete a message exactly once: [true] when this call did it,
   [false] when the message had already completed (a late wakeup — the
   caller decides whether that is a bug or just a discard). *)
let complete m outcome =
  match m.sm_state with
  | Completed _ -> false
  | Pending ->
    m.sm_state <- Completed outcome;
    true

let is_pending m = match m.sm_state with Pending -> true | Completed _ -> false

let outcome m =
  match m.sm_state with Pending -> None | Completed o -> Some o
