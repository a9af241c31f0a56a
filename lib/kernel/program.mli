(** Programs: the code that simulated processes run, and the effect
    through which they make system calls.

    A program's [main] receives its argument vector and returns an exit
    code; inside it, every interaction with the world happens by
    performing the {!Sys} effect (via {!Libc}'s wrappers).  Executable
    files in the simulated filesystem carry a one-line marker naming a
    registered program — the moral equivalent of a [#!] interpreter
    line — so that staging a binary onto a Chirp server and [exec]ing it
    works exactly as in Figure 3. *)

type main = string list -> int
(** A program entry point: argv (including argv0) to exit code. *)

type _ Effect.t += Sys : Syscall.request -> Syscall.result Effect.t
(** The system call effect.  Performed only from inside a process fiber;
    performing it elsewhere raises [Effect.Unhandled]. *)

val sys : Syscall.request -> Syscall.result
(** [sys req] performs {!Sys}. *)

exception Exited of int
(** Raised by [Libc.exit] to unwind a fiber; the kernel turns it into a
    normal process exit. *)

exception Killed of int
(** Injected by the kernel into a fiber whose process was killed; the
    argument is the signal number. *)

(** {1 The program registry}

    A global name → [main] table, playing the role of the binaries
    installed on every machine.  It is global (shared by all simulated
    kernels) just as the same binary can be staged onto any host. *)

val register : string -> main -> unit
(** [register name main] installs or replaces a program. *)

val find : string -> main option

val marker : string -> string
(** [marker name] is the executable-file contents that names a
    registered program: ["#!idbox-program:NAME\n"]. *)

val of_marker : string -> string option
(** Parse the program name out of executable-file contents. *)

val snapshot : unit -> (string * main) list
(** The registry's current contents (for save/restore in tests). *)

val restore : (string * main) list -> unit
(** Replace the registry's contents with a snapshot. *)
