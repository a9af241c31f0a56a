(** Compiled policy bytecode: the in-kernel decision program.

    A program is a frozen snapshot of the box's reachable ACL universe
    — three collision-free ("perfect") hash tables plus a flat
    two-opcode instruction stream, one wildcard block per ACL —
    evaluated at syscall entry without touching the policy
    interpreter.  Evaluation is a policy-generation compare (done by
    the caller), one or two table probes and a bounded automaton walk,
    charged at {!Cost.t.bytecode_check_ns}.  A stale program is
    recompiled lazily, at the next check; nothing recompiles eagerly.
    Each engine keeps its own program, and a kernel's single
    {!Kernel.policy} slot holds the last one any engine on that kernel
    installed.

    The module is policy-agnostic: rights travel as bit positions in
    an integer mask, principals and paths as strings.  The compiler
    lives upstream (in [Idbox.Policy_compile]); this module only
    represents, verifies and runs programs.

    Failure is always closed {e to the interpreter}: any input the
    program cannot answer — an unknown path, a relative or
    [".."]-containing path, a glob that exhausts its fuel, a
    structurally suspect block — evaluates to {!Unknown}, never to
    {!Allow}. *)

type verdict = Allow | Deny | Unknown

type t = {
  p_gen : int;
      (** The VFS policy generation ([Fs.policy_generation]) the
          snapshot was taken at — not the global generation, which
          plain-file churn also bumps. *)
  p_pool : string array;
  p_code : int array;
  p_acl_off : int array;
  p_dir_seed : int;
  p_dir_key : int array;
  p_dir_val : int array;
  p_path_seed : int;
  p_path_key : int array;
  p_path_val : int array;
  p_ex_seed : int;
  p_ex_key : int array;
  p_ex_acl : int array;
  p_ex_mask : int array;
}
(** The program layout is exposed so the compiler can build programs
    and tests can tamper with them; everything else should treat [t]
    as opaque and go through {!eval_object} / {!eval_in_dir}. *)

val generation : t -> int
(** The policy generation the program is valid for: the caller compares
    this against the live VFS policy generation before every evaluation
    and treats a mismatch as {e stale} (fall back to the interpreter and
    recompile, lazily — nothing recompiles eagerly). *)

(** {1 Opcodes and bounds} *)

val op_ret : int
val op_wild : int
val instr_width : int
(** Ints per instruction: [op; operand; operand]. *)

val max_pool : int
val max_string : int
val max_pattern : int
val max_code : int
val max_table : int
val max_block : int
val glob_fuel : int

(** {1 Hashing}

    Seeded FNV-1a, shared with the compiler so seed trials there place
    keys exactly where probes here look. *)

val hash : seed:int -> string -> int
val dir_slot : seed:int -> len:int -> string -> int
val path_slot : seed:int -> len:int -> string -> int
val ex_slot : seed:int -> len:int -> acl:int -> string -> int

(** {1 Evaluation} *)

val eval_object :
  t -> principal:string -> path:string -> right_bit:int -> verdict
(** The verdict for one object check.  [path] must be the absolute
    normalized path as presented to the engine; the program answers
    from its path table (existing objects, symlinks pre-resolved to
    their governing ACL at compile time) or, for paths absent from the
    snapshot, from the lexical parent's directory table entry.  At an
    unchanged policy generation every directory and symlink is in the
    path table, so a miss is either absent or a plain file created
    since: the parent's ACL governs both. *)

val eval_in_dir : t -> principal:string -> dir:string -> right_bit:int -> verdict
(** The verdict for a check directly against a directory's ACL. *)

type glob_result = Matched | Unmatched | Out_of_fuel

val glob : fuel:int -> string -> string -> glob_result
(** The fuel-bounded glob ['*']/['?'] matcher the WILD opcode runs.
    Exposed for the property tests. *)

(** {1 Verification} *)

val check_program : t -> (unit, string) result
(** The structural half of the compile-time verifier: sizes within
    budget, pool references in range, every ACL block RET-terminated
    within {!max_block} instructions, every table slot empty or placed
    exactly where its key hashes (the perfect-hash property).  With
    the fuel-bounded glob this bounds every loop an evaluation can
    run: the termination proof.  Semantic agreement with the
    interpreter is checked separately by the compiler's seeded
    sample. *)

val size : t -> int
(** Total table + code footprint in words, for size accounting. *)

val stats : t -> string
(** One-line occupancy summary for diagnostics. *)
