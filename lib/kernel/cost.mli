(** The calibrated cost model.

    All durations are simulated nanoseconds.  Direct costs are set once
    to the paper's unmodified Fig. 5(a) bars (1545 MHz Athlon XP 1800,
    Linux 2.4.20); interposition costs are the architectural terms of
    Fig. 4 — context switches, peek/poke words, and the extra copy
    through the I/O channel.  Application-level overheads are never set
    directly: they emerge from these constants and each workload's
    syscall mix. *)

type t = {
  context_switch : int64;
      (** One context switch.  A trapped syscall pays at least six
          (Fig. 4): two to stop at entry, two around the nullified call,
          two to resume after exit. *)
  peek_poke_word : int64;
      (** One [ptrace] PEEK or POKE: registers and small data move one
          word at a time. *)
  copy_byte_ns : float;
      (** Per-byte cost of the extra copy through the I/O channel
          (supervisor-side memcpy). *)
  supervisor_decode : int64;
      (** Fixed supervisor work per trapped call: decode, table lookups. *)
  acl_check_base : int64;
      (** Base cost of one ACL evaluation (read + parse the ACL file is
          charged separately as real syscalls by the supervisor). *)
  acl_check_entry : int64;  (** Additional cost per ACL entry scanned. *)
  syscall_base : int64;
      (** Kernel entry/exit cost common to every direct syscall. *)
  path_component : int64;  (** Per-component path resolution cost. *)
  name_cache_ns : int64;
      (** A supervisor name-cache hit: the per-component price of the
          ancestor-symlink canonicalization walk (an in-memory hash
          probe, like a dcache hit — far cheaper than a kernel path
          resolution). *)
  gen_check_ns : int64;
      (** One generation revalidation: a hash probe plus an integer
          compare against the VFS mutation generation.  Charged on the
          warm path of the supervisor's name and ACL caches and the
          delegation-chain memo so Fig. 6-style ablations stay honest —
          cheap, but not free. *)
  getpid_ns : int64;
  stat_ns : int64;  (** stat beyond [syscall_base] + path terms. *)
  open_ns : int64;
  close_ns : int64;
  read_base_ns : int64;
  write_base_ns : int64;
  io_byte_ns : float;  (** Per-byte cost of a direct read/write. *)
  spawn_ns : int64;
  misc_ns : int64;  (** Any other call beyond [syscall_base]. *)
  wal_append_ns : int64;
      (** Per-record cost of formatting + checksumming a WAL append
          (the byte copy is charged separately via {!copy_bytes}). *)
  wal_sync_ns : int64;
      (** One stable-storage sync (fsync of the log tail) — the price
          of acknowledging a mutation durably.  Dominates the WAL's
          contribution to write latency, as on a real disk. *)
  wal_replay_ns : int64;
      (** Per-record parse + checksum verification during recovery
          (re-executing the logged operation is charged by the
          operation itself). *)
  checkpoint_entry_ns : int64;
      (** Per-entry cost of writing or loading a checkpoint image
          (besides the snapshot walk's own delegated syscalls). *)
  digest_dir_ns : int64;
      (** Per-directory cost of computing a fresh anti-entropy digest
          (hashing names, kinds and ACL text; file-content bytes are
          charged via {!copy_bytes}).  A generation-validated memo hit
          costs {!t.gen_check_ns} instead. *)
  chain_hop_ns : int64;
      (** Per-hop cost of cold delegation-chain validation: one keyed
          digest recompute plus the structural checks for a single hop.
          A memoized chain verdict revalidated against the revocation
          generation costs {!t.gen_check_ns} instead. *)
  bytecode_check_ns : int64;
      (** One compiled-policy bytecode evaluation at syscall entry: a
          generation compare, one or two perfect-hash probes and a
          bounded automaton step — no interpreter, no cache walk.  Far
          below {!t.gen_check_ns} because the program is immutable and
          collision-free once installed. *)
  bytecode_compile_ns : int64;
      (** One policy compilation: walking the reachable ACL set,
          building the perfect-hash tables and running the seeded
          verifier.  Charged off the hot path (on the first interpreted
          check after an invalidation), never per syscall. *)
}

val default : t
(** The calibration used for every experiment in EXPERIMENTS.md. *)

val direct : t -> Syscall.request -> Syscall.result -> int64
(** Cost of executing a request directly (no tracer), given its result
    (payload sizes matter). *)

val path_cost : t -> string -> int64
(** Kernel path walk for [path]: {!t.path_component} per component, as
    counted by {!Idbox_vfs.Path.component_count}. *)

val copy_bytes : t -> int -> int64
(** Cost of copying [n] bytes through the I/O channel. *)

val peek_poke : t -> words:int -> int64
(** Cost of moving [words] machine words via PEEK/POKE. *)
