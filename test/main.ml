(* The aggregated test binary: one alcotest run, one suite per module. *)

let () =
  Alcotest.run "idbox"
    [
      ("wildcard", Test_wildcard.suite);
      ("principal", Test_principal.suite);
      ("subject", Test_subject.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("acl", Test_acl.suite);
      ("path", Test_path.suite);
      ("vfs", Test_vfs.suite);
      ("vfs-props", Test_vfs_props.suite);
      ("kernel", Test_kernel.suite);
      ("metrics", Test_metrics.suite);
      ("kernel-units", Test_kernel_units.suite);
      ("pipe", Test_pipe.suite);
      ("libc", Test_libc.suite);
      ("box", Test_box.suite);
      ("security", Test_security.suite);
      ("auth", Test_auth.suite);
      ("net", Test_net.suite);
      ("chaos", Test_chaos.suite);
      ("wal", Test_wal.suite);
      ("protocol", Test_protocol.suite);
      ("chirp", Test_chirp.suite);
      ("enforce", Test_enforce.suite);
      ("ptrace", Test_ptrace.suite);
      ("kbox", Test_kbox.suite);
      ("accounts", Test_accounts.suite);
      ("workload", Test_workload.suite);
      ("audit", Test_audit.suite);
      ("fuzz", Test_fuzz.suite);
      ("cas", Test_cas.suite);
      ("chirp_fs", Test_chirp_fs.suite);
      ("apps", Test_apps.suite);
      ("remote", Test_remote.suite);
      ("world", Test_world.suite);
      ("ring", Test_ring.suite);
      ("cluster", Test_cluster.suite);
      ("enforce-cache", Test_enforce_cache.suite);
      ("policy-compile", Test_policy_compile.suite);
      ("delegation", Test_delegation.suite);
      ("delegation-props", Test_delegation_props.suite);
      ("delegation-chaos", Test_delegation_chaos.suite);
      ("async", Test_async.suite);
      ("control", Test_control.suite);
      ("geo", Test_geo.suite);
      ("rights-table", Test_rights_table.suite);
    ]
