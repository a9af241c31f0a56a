module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"
let jane = Principal.of_string "globus:/O=UnivNowhere/CN=Jane"
let eve = Principal.of_string "globus:/O=Elsewhere/CN=Eve"

(* --- Rights ---------------------------------------------------------- *)

let rights_parse_print () =
  Alcotest.(check string) "canonical order" "rwlxad"
    (Rights.to_string (Rights.of_string_exn "daxlwr"));
  Alcotest.(check string) "empty is dash" "-" (Rights.to_string Rights.empty);
  Alcotest.(check bool) "dash parses empty" true
    (Rights.is_empty (Rights.of_string_exn "-"));
  (match Rights.of_string "rwz" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown right accepted")

let rights_set_operations () =
  let rl = Rights.of_string_exn "rl" and rwl = Rights.of_string_exn "rwl" in
  Alcotest.(check bool) "subset" true (Rights.subset rl rwl);
  Alcotest.(check bool) "not subset" false (Rights.subset rwl rl);
  Alcotest.(check bool) "mem" true (Rights.mem Right.Write rwl);
  Alcotest.(check bool) "union" true
    (Rights.equal (Rights.union rl (Rights.singleton Right.Write)) rwl);
  Alcotest.(check bool) "inter" true (Rights.equal (Rights.inter rl rwl) rl);
  Alcotest.(check int) "cardinal" 3 (Rights.cardinal rwl);
  Alcotest.(check bool) "remove" false
    (Rights.mem Right.Read (Rights.remove Right.Read rl))

let prop_rights_roundtrip =
  let rights_gen =
    QCheck.map Rights.of_list
      (QCheck.list_of_size (QCheck.Gen.int_range 0 6)
         (QCheck.oneofl Right.all))
  in
  QCheck.Test.make ~name:"rights to_string/of_string roundtrip" ~count:200
    rights_gen (fun r ->
      Rights.equal r (Rights.of_string_exn (Rights.to_string r)))

let prop_union_monotone =
  let rights_gen =
    QCheck.map Rights.of_list
      (QCheck.list_of_size (QCheck.Gen.int_range 0 6)
         (QCheck.oneofl Right.all))
  in
  QCheck.Test.make ~name:"a subset (union a b)" ~count:200
    (QCheck.pair rights_gen rights_gen)
    (fun (a, b) -> Rights.subset a (Rights.union a b))

(* --- Entries --------------------------------------------------------- *)

let entry_parse_plain () =
  let e = Result.get_ok (Entry.of_line "/O=UnivNowhere/CN=Fred   rwlax") in
  Alcotest.(check bool) "rights" true
    (Rights.equal e.Entry.rights (Rights.of_string_exn "rwlax"));
  Alcotest.(check bool) "no reserve" true (e.Entry.reserve = None)

let entry_parse_reserve () =
  (* The paper's reserve form: v(rwlax). *)
  let e = Result.get_ok (Entry.of_line "globus:/O=UnivNowhere/* v(rwlax)") in
  Alcotest.(check bool) "no direct rights" true (Rights.is_empty e.Entry.rights);
  (match e.Entry.reserve with
   | Some g ->
     Alcotest.(check string) "grant" "rwlxa" (Rights.to_string g)
   | None -> Alcotest.fail "reserve missing")

let entry_parse_mixed () =
  (* Direct rights combined with a reserve grant. *)
  let e = Result.get_ok (Entry.of_line "hostname:*.nowhere.edu rlxv(rwl)") in
  Alcotest.(check string) "direct" "rlx" (Rights.to_string e.Entry.rights);
  (match e.Entry.reserve with
   | Some g -> Alcotest.(check string) "grant" "rwl" (Rights.to_string g)
   | None -> Alcotest.fail "reserve missing")

let entry_roundtrip () =
  List.iter
    (fun line ->
      let e = Result.get_ok (Entry.of_line line) in
      let e' = Result.get_ok (Entry.of_line (Entry.to_line e)) in
      Alcotest.(check bool) line true (Entry.equal e e'))
    [
      "/O=UnivNowhere/CN=Fred rwlax";
      "globus:/O=UnivNowhere/* v(rwlxad)";
      "hostname:*.nowhere.edu rlxv(rwl)";
      "* rl";
    ]

let entry_malformed () =
  List.iter
    (fun line ->
      match Entry.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" line)
    [ ""; "onlypattern"; "a b c"; "p rz" ]

(* --- ACLs ------------------------------------------------------------ *)

let paper_example_acl () =
  (* The ACL from paper §3: Fred has everything, the organization reads
     and lists. *)
  let acl =
    Acl.of_string_exn
      "/O=UnivNowhere/CN=Fred rwlxa\n/O=UnivNowhere/* rl\n"
  in
  let fred_dn = Principal.of_string "/O=UnivNowhere/CN=Fred" in
  let jane_dn = Principal.of_string "/O=UnivNowhere/CN=Jane" in
  let eve_dn = Principal.of_string "/O=Elsewhere/CN=Eve" in
  Alcotest.(check bool) "fred writes" true (Acl.check acl fred_dn Right.Write);
  Alcotest.(check bool) "jane reads" true (Acl.check acl jane_dn Right.Read);
  Alcotest.(check bool) "jane cannot write" false (Acl.check acl jane_dn Right.Write);
  Alcotest.(check bool) "eve nothing" false (Acl.check acl eve_dn Right.Read)

let union_of_matching_entries () =
  (* Rights compose across entries: a specific grant plus an org-wide
     wildcard. *)
  let acl =
    Acl.of_entries
      [
        Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rl");
        Entry.make ~pattern:"globus:/O=UnivNowhere/CN=Fred"
          (Rights.of_string_exn "wx");
      ]
  in
  Alcotest.(check string) "union" "rwlx" (Rights.to_string (Acl.rights_of acl fred));
  Alcotest.(check string) "jane only org" "rl"
    (Rights.to_string (Acl.rights_of acl jane))

let reserve_union () =
  let acl =
    Acl.of_string_exn
      "globus:/O=UnivNowhere/* v(rl)\nglobus:*CN=Fred v(wx)\n"
  in
  (match Acl.reserve_for acl fred with
   | Some g -> Alcotest.(check string) "merged grant" "rwlx" (Rights.to_string g)
   | None -> Alcotest.fail "no reserve");
  (match Acl.reserve_for acl eve with
   | None -> ()
   | Some _ -> Alcotest.fail "eve should have no reserve")

let set_entry_replaces () =
  let acl = Acl.of_string_exn "unix:alice rl\n" in
  let acl' =
    Acl.set_entry acl (Entry.make ~pattern:"unix:alice" (Rights.of_string_exn "rwl"))
  in
  Alcotest.(check int) "still one entry" 1 (List.length (Acl.entries acl'));
  Alcotest.(check string) "updated" "rwl"
    (Rights.to_string (Acl.rights_of acl' (Principal.of_string "unix:alice")))

let grant_accumulates () =
  let acl = Acl.grant Acl.empty ~pattern:"unix:bob" (Rights.of_string_exn "r") in
  let acl = Acl.grant acl ~pattern:"unix:bob" (Rights.of_string_exn "w") in
  Alcotest.(check string) "accumulated" "rw"
    (Rights.to_string (Acl.rights_of acl (Principal.of_string "unix:bob")))

let remove_pattern () =
  let acl = Acl.of_string_exn "unix:alice rl\nunix:bob rw\n" in
  let acl' = Acl.remove_pattern acl "unix:alice" in
  Alcotest.(check int) "one left" 1 (List.length (Acl.entries acl'));
  Alcotest.(check bool) "alice gone" false
    (Acl.check acl' (Principal.of_string "unix:alice") Right.Read)

let comments_and_blanks () =
  let acl = Acl.of_string_exn "# a comment\n\nunix:alice rl\n   \n" in
  Alcotest.(check int) "one entry" 1 (List.length (Acl.entries acl))

let for_owner_full () =
  let acl = Acl.for_owner fred in
  List.iter
    (fun r ->
      Alcotest.(check bool) (Right.describe r) true (Acl.check acl fred r))
    Right.all;
  Alcotest.(check bool) "not others" false (Acl.check acl jane Right.Read)

let empty_denies_everything () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (Right.describe r) false (Acl.check Acl.empty fred r))
    Right.all

let prop_acl_roundtrip =
  let entry_gen =
    QCheck.Gen.(
      map2
        (fun pat rights -> Entry.make ~pattern:pat (Rights.of_list rights))
        (oneofl
           [ "unix:alice"; "globus:/O=X/*"; "*"; "kerberos:*@realm"; "host?" ])
        (list_size (int_range 1 6) (oneofl Right.all)))
  in
  QCheck.Test.make ~name:"acl to_string/of_string roundtrip" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 5) entry_gen))
    (fun entries ->
      let acl = Acl.of_entries entries in
      match Acl.of_string (Acl.to_string acl) with
      | Ok acl' -> Acl.equal acl acl'
      | Error _ -> false)

(* The matcher memo is bounded: a stream of distinct principals far
   past [memo_capacity] triggers capacity flushes (counted), and a
   flushed principal's next probe still answers identically. *)
let memo_capped_and_coherent () =
  let acl =
    Acl.of_string_exn
      "globus:/O=UnivNowhere/* rl\nglobus:/O=UnivNowhere/CN=Fred wxad\n"
  in
  let who i =
    Principal.of_string (Printf.sprintf "globus:/O=UnivNowhere/CN=user%05d" i)
  in
  let ev0 = Acl.memo_evictions () in
  let n = (2 * Acl.memo_capacity) + 7 in
  for i = 0 to n - 1 do
    ignore (Acl.rights_of acl (who i))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct principals forced a flush" n)
    true
    (Acl.memo_evictions () > ev0);
  (* Early principals were flushed; their recomputed rights must not
     have changed, and fred's literal entry still unions in. *)
  Alcotest.(check string) "flushed principal recomputes identically" "rl"
    (Rights.to_string (Acl.rights_of acl (who 0)));
  Alcotest.(check string) "literal + wildcard union survives" "rwlxad"
    (Rights.to_string (Acl.rights_of acl fred))

let prop_check_is_union =
  let right_gen = QCheck.oneofl Idbox_acl.Right.all in
  QCheck.Test.make ~name:"check = mem of rights_of" ~count:100
    (QCheck.pair right_gen (QCheck.oneofl [ fred; jane; eve ]))
    (fun (r, who) ->
      let acl =
        Acl.of_string_exn
          "globus:/O=UnivNowhere/* rl\nglobus:/O=UnivNowhere/CN=Fred wxad\n"
      in
      Acl.check acl who r = Rights.mem r (Acl.rights_of acl who))

(* A warm check is one memo probe: the key is the principal's own
   canonical string and the lookup builds no option, so a memo hit
   allocates nothing. *)
let memo_hit_allocates_nothing () =
  let acl =
    Acl.of_entries
      [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rl") ]
  in
  (* The first check compiles the matcher and fills the memo. *)
  Alcotest.(check bool) "fred reads" true (Acl.check acl fred Right.Read);
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Sys.opaque_identity (Acl.check acl fred Right.Read))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "minor words per check" 0 (int_of_float words / 100_000);
  Alcotest.(check bool) "under one word per thousand checks" true (words < 100.)

let suite =
  [
    Alcotest.test_case "rights parse/print" `Quick rights_parse_print;
    Alcotest.test_case "rights set operations" `Quick rights_set_operations;
    QCheck_alcotest.to_alcotest prop_rights_roundtrip;
    QCheck_alcotest.to_alcotest prop_union_monotone;
    Alcotest.test_case "entry plain" `Quick entry_parse_plain;
    Alcotest.test_case "entry reserve" `Quick entry_parse_reserve;
    Alcotest.test_case "entry mixed" `Quick entry_parse_mixed;
    Alcotest.test_case "entry roundtrip" `Quick entry_roundtrip;
    Alcotest.test_case "entry malformed" `Quick entry_malformed;
    Alcotest.test_case "paper example acl" `Quick paper_example_acl;
    Alcotest.test_case "union of matching entries" `Quick union_of_matching_entries;
    Alcotest.test_case "reserve union" `Quick reserve_union;
    Alcotest.test_case "set_entry replaces" `Quick set_entry_replaces;
    Alcotest.test_case "grant accumulates" `Quick grant_accumulates;
    Alcotest.test_case "remove pattern" `Quick remove_pattern;
    Alcotest.test_case "comments and blanks" `Quick comments_and_blanks;
    Alcotest.test_case "for_owner full" `Quick for_owner_full;
    Alcotest.test_case "empty denies" `Quick empty_denies_everything;
    Alcotest.test_case "matcher memo capped" `Quick memo_capped_and_coherent;
    Alcotest.test_case "memo hit allocates no minor words" `Quick
      memo_hit_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_acl_roundtrip;
    QCheck_alcotest.to_alcotest prop_check_is_union;
  ]
