type entry_action =
  | Pass
  | Rewrite of Syscall.request
  | Deny of Idbox_vfs.Errno.t

type exit_action =
  | Keep
  | Replace of Syscall.result

type event =
  | Spawned of { pid : int; parent : int }
  | Exited of { pid : int; code : int }

type handler = {
  on_entry : pid:int -> Syscall.request -> entry_action;
  on_exit : pid:int -> Syscall.request -> Syscall.result -> exit_action;
  on_event : event -> unit;
}

let pass_through =
  {
    on_entry = (fun ~pid:_ _ -> Pass);
    on_exit = (fun ~pid:_ _ _ -> Keep);
    on_event = (fun _ -> ());
  }

(* --- structured trace spans ------------------------------------------ *)

type span = {
  sp_seq : int;
  sp_time : int64;
  sp_pid : int;
  sp_identity : string;
  sp_syscall : string;
  sp_verdict : string;
  sp_cost_ns : int64;
}

(* A fixed-capacity ring stored as columns: the identity, syscall and
   verdict strings by reference, the pids in an int array, and the
   simulated time and cost as raw 64-bit words in a byte column, so
   recording a span writes its fields in place and allocates nothing
   the ring keeps.  A [span] record is built only when the ring is
   read.  The columns are allocated lazily on the first span, so a
   ring that never records pays one word per field here and nothing
   else.  [head] is the slot of the next write; once
   [total >= capacity] the oldest span lives at [head], and the spans
   retained are the last [length] ones recorded, so a slot's sequence
   number follows from its age. *)
type ring = {
  capacity : int;
  mutable times : Bytes.t;
  mutable costs : Bytes.t;
  mutable pids : int array;
  mutable identities : string array;
  mutable syscalls : string array;
  mutable verdicts : string array;
  mutable head : int;
  mutable total : int;
}

let default_capacity = 1024

let ring ?(capacity = default_capacity) () =
  let capacity = if capacity < 1 then 1 else capacity in
  { capacity; times = Bytes.empty; costs = Bytes.empty; pids = [||];
    identities = [||]; syscalls = [||]; verdicts = [||]; head = 0; total = 0 }

let capacity r = r.capacity
let total r = r.total
let length r = if r.total < r.capacity then r.total else r.capacity
let dropped r = r.total - length r

let allocate r =
  let n = r.capacity in
  r.times <- Bytes.make (8 * n) '\000';
  r.costs <- Bytes.make (8 * n) '\000';
  r.pids <- Array.make n 0;
  r.identities <- Array.make n "";
  r.syscalls <- Array.make n "";
  r.verdicts <- Array.make n ""

let read_slot r slot ~seq =
  {
    sp_seq = seq;
    sp_time = Bytes.get_int64_le r.times (8 * slot);
    sp_pid = r.pids.(slot);
    sp_identity = r.identities.(slot);
    sp_syscall = r.syscalls.(slot);
    sp_verdict = r.verdicts.(slot);
    sp_cost_ns = Bytes.get_int64_le r.costs (8 * slot);
  }

let span r ~time ~pid ~identity ~syscall ~verdict ~cost_ns =
  if Array.length r.pids = 0 then allocate r;
  let slot = r.head in
  Bytes.set_int64_le r.times (8 * slot) time;
  Bytes.set_int64_le r.costs (8 * slot) cost_ns;
  r.pids.(slot) <- pid;
  r.identities.(slot) <- identity;
  r.syscalls.(slot) <- syscall;
  r.verdicts.(slot) <- verdict;
  r.head <- (if slot + 1 = r.capacity then 0 else slot + 1);
  r.total <- r.total + 1

(* Oldest-first iteration.  When the ring has wrapped, the oldest
   retained span sits at [head]; before wrap, at 0. *)
let iter r f =
  let n = length r in
  let start = if r.total < r.capacity then 0 else r.head in
  let first_seq = r.total - n in
  for i = 0 to n - 1 do
    f (read_slot r ((start + i) mod r.capacity) ~seq:(first_seq + i))
  done

let to_list r =
  let acc = ref [] in
  iter r (fun s -> acc := s :: !acc);
  List.rev !acc

(* The columns stay allocated: with [total] at 0 no slot is read. *)
let reset r =
  r.head <- 0;
  r.total <- 0

let span_json s =
  Printf.sprintf
    "{\"seq\":%d,\"time_ns\":%Ld,\"pid\":%d,\"identity\":\"%s\",\"syscall\":\"%s\",\"verdict\":\"%s\",\"cost_ns\":%Ld}"
    s.sp_seq s.sp_time s.sp_pid
    (Metrics.escape_json s.sp_identity)
    (Metrics.escape_json s.sp_syscall)
    (Metrics.escape_json s.sp_verdict)
    s.sp_cost_ns

let to_json r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"capacity\":%d,\"total\":%d,\"dropped\":%d,\"spans\":["
       r.capacity r.total (dropped r));
  let first = ref true in
  iter r (fun s ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf (span_json s));
  Buffer.add_string buf "]}";
  Buffer.contents buf

let pp_span ppf s =
  Format.fprintf ppf "@[<h>#%d t=%Ldns pid=%d %s %s -> %s (+%Ldns)@]" s.sp_seq
    s.sp_time s.sp_pid s.sp_identity s.sp_syscall s.sp_verdict s.sp_cost_ns
