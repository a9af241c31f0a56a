type t = {
  context_switch : int64;
  peek_poke_word : int64;
  copy_byte_ns : float;
  supervisor_decode : int64;
  acl_check_base : int64;
  acl_check_entry : int64;
  syscall_base : int64;
  path_component : int64;
  name_cache_ns : int64;
  gen_check_ns : int64;
  getpid_ns : int64;
  stat_ns : int64;
  open_ns : int64;
  close_ns : int64;
  read_base_ns : int64;
  write_base_ns : int64;
  io_byte_ns : float;
  spawn_ns : int64;
  misc_ns : int64;
  wal_append_ns : int64;
  wal_sync_ns : int64;
  wal_replay_ns : int64;
  checkpoint_entry_ns : int64;
  digest_dir_ns : int64;
  chain_hop_ns : int64;
  bytecode_check_ns : int64;
  bytecode_compile_ns : int64;
}

let default =
  {
    context_switch = 900L;
    peek_poke_word = 150L;
    copy_byte_ns = 0.35;
    supervisor_decode = 400L;
    acl_check_base = 300L;
    acl_check_entry = 60L;
    syscall_base = 250L;
    path_component = 350L;
    name_cache_ns = 80L;
    gen_check_ns = 40L;
    getpid_ns = 150L;
    stat_ns = 1500L;
    open_ns = 1600L;
    close_ns = 500L;
    read_base_ns = 600L;
    write_base_ns = 700L;
    io_byte_ns = 0.30;
    spawn_ns = 250_000L;
    misc_ns = 800L;
    wal_append_ns = 1_200L;
    wal_sync_ns = 150_000L;
    wal_replay_ns = 900L;
    checkpoint_entry_ns = 2_500L;
    digest_dir_ns = 1_800L;
    chain_hop_ns = 2_000L;
    bytecode_check_ns = 12L;
    bytecode_compile_ns = 40_000L;
  }

let ns_of_float f = Int64.of_float (Float.round f)

let copy_bytes t n = ns_of_float (float_of_int n *. t.copy_byte_ns)

let peek_poke t ~words = Int64.mul (Int64.of_int words) t.peek_poke_word

let path_cost t path =
  Int64.mul (Int64.of_int (Idbox_vfs.Path.component_count path)) t.path_component

let io_cost t base bytes =
  Int64.add base (ns_of_float (float_of_int bytes *. t.io_byte_ns))

let direct t req result =
  let bytes = Syscall.payload_bytes req result in
  let body =
    match req with
    | Syscall.Getpid | Syscall.Getppid | Syscall.Getuid | Syscall.Get_user_name ->
      t.getpid_ns
    | Syscall.Getcwd | Syscall.Getenv _ | Syscall.Setenv _ -> t.getpid_ns
    | Syscall.Chdir p -> Int64.add t.misc_ns (path_cost t p)
    | Syscall.Open { path; _ } -> Int64.add t.open_ns (path_cost t path)
    | Syscall.Close _ -> t.close_ns
    | Syscall.Read _ | Syscall.Pread _ -> io_cost t t.read_base_ns bytes
    | Syscall.Write _ | Syscall.Pwrite _ -> io_cost t t.write_base_ns bytes
    | Syscall.Lseek _ -> t.getpid_ns
    | Syscall.Stat p | Syscall.Lstat p -> Int64.add t.stat_ns (path_cost t p)
    | Syscall.Fstat _ -> t.stat_ns
    | Syscall.Mkdir { path; _ } | Syscall.Rmdir path | Syscall.Unlink path ->
      Int64.add t.misc_ns (path_cost t path)
    | Syscall.Link { path; _ } | Syscall.Symlink { path; _ } ->
      Int64.add t.misc_ns (path_cost t path)
    | Syscall.Readlink p | Syscall.Readdir p | Syscall.Getacl p ->
      Int64.add t.misc_ns (path_cost t p)
    | Syscall.Rename { src; dst } ->
      Int64.add t.misc_ns (Int64.add (path_cost t src) (path_cost t dst))
    | Syscall.Chmod { path; _ } | Syscall.Chown { path; _ }
    | Syscall.Truncate { path; _ } | Syscall.Setacl { path; _ } ->
      Int64.add t.misc_ns (path_cost t path)
    | Syscall.Pipe -> t.misc_ns
    | Syscall.Spawn _ -> t.spawn_ns
    | Syscall.Waitpid _ | Syscall.Exit _ | Syscall.Kill _ -> t.misc_ns
    | Syscall.Compute ns -> ns
  in
  match req with
  | Syscall.Compute _ -> body (* pure user time: no kernel entry cost *)
  | _ -> Int64.add t.syscall_base body
