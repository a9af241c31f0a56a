module Wire = Idbox_chirp.Wire
module Protocol = Idbox_chirp.Protocol
module Credential = Idbox_auth.Credential
module Ca = Idbox_auth.Ca
module Kerberos = Idbox_auth.Kerberos
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

(* --- wire framing ----------------------------------------------------- *)

let wire_roundtrip_cases () =
  List.iter
    (fun fields ->
      match Wire.decode (Wire.encode fields) with
      | Ok decoded ->
        Alcotest.(check (list string)) "roundtrip" fields decoded
      | Error m -> Alcotest.fail m)
    [
      [];
      [ "" ];
      [ "a" ];
      [ "put"; "/work/sim.exe"; "binary\000data:with:colons\n" ];
      [ "x"; ""; "y" ];
    ]

let wire_rejects_garbage () =
  List.iter
    (fun text ->
      match Wire.decode text with
      | Error _ -> ()
      | Ok fields ->
        (* A decode may only succeed if re-encoding gives the input back. *)
        if not (String.equal (Wire.encode fields) text) then
          Alcotest.failf "%S decoded loosely" text)
    [ "5:ab"; "x:ab"; "3ab"; "-1:"; "2:ab3:c";
      (* Lengths [encode] never writes: a sign, a radix prefix, an
         underscore, a leading zero. *)
      "0x3:abc"; "+3:abc"; "0_3:abc"; "0o3:abc"; "0b11:abc"; "0u3:abc";
      "03:abc"; "-0:" ]

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip on arbitrary fields" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6)
       (QCheck.string_of_size (QCheck.Gen.int_range 0 40)))
    (fun fields ->
      match Wire.decode (Wire.encode fields) with
      | Ok decoded -> decoded = fields
      | Error _ -> false)

(* Inputs for the decoder properties: arbitrary strings over an
   alphabet rich in length syntax, and encodings mangled at one spot —
   a byte inserted, deleted or replaced, or the tail cut. *)
let gen_fields =
  QCheck.Gen.(
    list_size (int_range 0 5)
      (string_size ~gen:(oneof [ char_range '0' ':'; printable ]) (int_range 0 30)))

let gen_wire_input =
  let open QCheck.Gen in
  let syntax = oneofl [ '0'; '1'; '9'; ':'; '+'; '-'; '_'; 'x'; 'o'; 'b'; 'u'; '\000' ] in
  let mangled =
    let* s = map Wire.encode gen_fields in
    let n = String.length s in
    let* i = int_range 0 n in
    let* c = syntax in
    let* kind = int_range 0 4 in
    let tail = String.sub s i (n - i) in
    return
      (match kind with
       | 0 -> s
       | 1 -> String.sub s 0 i ^ String.make 1 c ^ tail
       | 2 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
       | 3 when i < n -> String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
       | _ -> String.sub s 0 i)
  in
  oneof [ mangled; string_size ~gen:(oneof [ syntax; printable ]) (int_range 0 24) ]

let arb_wire_input = QCheck.make ~print:(Printf.sprintf "%S") gen_wire_input

let prop_decode_canonical =
  QCheck.Test.make ~name:"wire decode succeeds only on canonical input" ~count:2000
    arb_wire_input (fun s ->
      match Wire.decode s with
      | Ok fields -> String.equal (Wire.encode fields) s
      | Error _ -> true)

(* A range is decoded exactly as the substring it spans, and never
   raises: the range decoder is the only parser. *)
let prop_range_is_substring =
  QCheck.Test.make ~name:"wire range decode equals substring decode" ~count:2000
    QCheck.(
      triple arb_wire_input (make Gen.(int_range 0 8)) (make Gen.(int_range 0 8)))
    (fun (body, before, after) ->
      let s = String.make before '7' ^ body ^ String.make after ':' in
      let len = String.length body in
      let expected = Wire.decode body in
      Wire.decode_range s ~pos:before ~len = expected
      && Result.map
           (List.map (fun (at, n) -> String.sub s at n))
           (Wire.spans s ~pos:before ~len)
         = expected)

(* --- reference oracle ------------------------------------------------- *)

(* The codec and envelope written the plain way the sized writer
   replaced: a growing Buffer per message, the seal as the encoding of
   [tag; sum body; body] around an already-encoded body, and a decoder
   that copies each length out for [int_of_string_opt], to which only
   the canonical-length rule and an overflow-safe truncation test are
   added.  The sum is MurmurHash3_x64_128 written out a byte at a time,
   sharing no code with the library's 8-byte loads.  Every frame must
   stay byte-identical to what these give, and every decode error keeps
   its text, which a server sends back in its reply. *)
module Oracle = struct
  (* MurmurHash3_x64_128 (seed 0 unless given): each little-endian
     word assembled from [Char.code] of its bytes, the 128-bit result
     emitted h1 then h2, lowest byte first. *)
  let murmur3 ?(seed = 0L) s =
    let n = String.length s in
    let ( ^^ ) = Int64.logxor and ( ++ ) = Int64.add and ( ** ) = Int64.mul in
    let rotl x r =
      Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))
    in
    let word at count =
      let w = ref 0L in
      for j = 0 to count - 1 do
        w := !w ^^ Int64.shift_left (Int64.of_int (Char.code s.[at + j])) (8 * j)
      done;
      !w
    in
    let c1 = 0x87c37b91114253d5L and c2 = 0x4cf5ad432745937fL in
    let mix1 k = rotl (k ** c1) 31 ** c2 and mix2 k = rotl (k ** c2) 33 ** c1 in
    let fmix k =
      let k = (k ^^ Int64.shift_right_logical k 33) ** 0xff51afd7ed558ccdL in
      let k = (k ^^ Int64.shift_right_logical k 33) ** 0xc4ceb9fe1a85ec53L in
      k ^^ Int64.shift_right_logical k 33
    in
    let h1 = ref seed and h2 = ref seed in
    for block = 0 to (n / 16) - 1 do
      h1 := !h1 ^^ mix1 (word (16 * block) 8);
      h1 := ((rotl !h1 27 ++ !h2) ** 5L) ++ 0x52dce729L;
      h2 := !h2 ^^ mix2 (word ((16 * block) + 8) 8);
      h2 := ((rotl !h2 31 ++ !h1) ** 5L) ++ 0x38495ab5L
    done;
    let tail = n / 16 * 16 and rest = n mod 16 in
    if rest > 8 then h2 := !h2 ^^ mix2 (word (tail + 8) (rest - 8));
    if rest > 0 then h1 := !h1 ^^ mix1 (word tail (min rest 8));
    h1 := !h1 ^^ Int64.of_int n;
    h2 := !h2 ^^ Int64.of_int n;
    h1 := !h1 ++ !h2;
    h2 := !h2 ++ !h1;
    h1 := fmix !h1;
    h2 := fmix !h2;
    h1 := !h1 ++ !h2;
    h2 := !h2 ++ !h1;
    String.init 16 (fun i ->
        let h = if i < 8 then !h1 else !h2 in
        Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical h (8 * (i mod 8))) 0xffL)))

  let encode fields =
    let buf = Buffer.create 64 in
    List.iter
      (fun field ->
        Buffer.add_string buf (string_of_int (String.length field));
        Buffer.add_char buf ':';
        Buffer.add_string buf field)
      fields;
    Buffer.contents buf

  let decode s =
    let n = String.length s in
    let rec fields i acc =
      if i >= n then Ok (List.rev acc)
      else
        match String.index_from_opt s i ':' with
        | None -> Error "missing ':' after field length"
        | Some j ->
          let len_text = String.sub s i (j - i) in
          (match int_of_string_opt len_text with
           | None -> Error (Printf.sprintf "bad field length %S" len_text)
           | Some len when len < 0 -> Error "negative field length"
           | Some len when len > n - (j + 1) -> Error "truncated field"
           | Some len when not (String.equal (string_of_int len) len_text) ->
             Error (Printf.sprintf "non-canonical field length %S" len_text)
           | Some len -> fields (j + 1 + len) (String.sub s (j + 1) len :: acc))
    in
    fields 0 []

  let seal tag body = encode [ tag; murmur3 body; body ]

  let credential_fields = function
    | Credential.Gsi cert ->
      [ "gsi"; Subject.to_string cert.Ca.subject; cert.Ca.issuer;
        string_of_int cert.Ca.serial; cert.Ca.signature ]
    | Credential.Krb ticket ->
      [ "krb"; ticket.Kerberos.user; ticket.Kerberos.realm;
        Int64.to_string ticket.Kerberos.issued_at;
        Int64.to_string ticket.Kerberos.expires_at; ticket.Kerberos.stamp ]
    | Credential.Unix_account name -> [ "unix"; name ]
    | Credential.Host host -> [ "host"; host ]

  let rec operation_fields = function
    | Protocol.Mkdir p -> [ "mkdir"; p ]
    | Protocol.Rmdir p -> [ "rmdir"; p ]
    | Protocol.Unlink p -> [ "unlink"; p ]
    | Protocol.Put { path; data } -> [ "put"; path; data ]
    | Protocol.Get p -> [ "get"; p ]
    | Protocol.Stat p -> [ "stat"; p ]
    | Protocol.Readdir p -> [ "readdir"; p ]
    | Protocol.Getacl p -> [ "getacl"; p ]
    | Protocol.Setacl { path; entry } -> [ "setacl"; path; entry ]
    | Protocol.Rename { src; dst } -> [ "rename"; src; dst ]
    | Protocol.Exec { path; args; cwd } -> "exec" :: path :: cwd :: args
    | Protocol.Checksum p -> [ "checksum"; p ]
    | Protocol.Whoami -> [ "whoami" ]
    | Protocol.Batch ops -> "batch" :: List.map (fun op -> encode (operation_fields op)) ops
    | Protocol.Delegated { chain; op } ->
      "delegated" :: encode (operation_fields op)
      :: List.map (fun tok -> encode (Idbox_auth.Delegation.token_fields tok)) chain
    | Protocol.Revoke p -> [ "revoke"; p ]
    | Protocol.Epoch p -> [ "epoch"; p ]

  let request = function
    | Protocol.Auth creds ->
      seal "q" (encode ("auth" :: List.map (fun c -> encode (credential_fields c)) creds))
    | Protocol.Op { token; req_id; op } ->
      seal "q" (encode ("op" :: token :: req_id :: operation_fields op))

  let rec response_body = function
    | Protocol.R_ok -> encode [ "ok" ]
    | Protocol.R_error (errno, msg) -> encode [ "error"; Errno.to_string errno; msg ]
    | Protocol.R_auth { token; principal; method_ } ->
      encode [ "auth"; token; principal; method_ ]
    | Protocol.R_data data -> encode [ "data"; data ]
    | Protocol.R_stat { Protocol.ws_kind; ws_size; ws_mtime } ->
      encode [ "stat"; ws_kind; string_of_int ws_size; Int64.to_string ws_mtime ]
    | Protocol.R_names names -> encode ("names" :: names)
    | Protocol.R_exit code -> encode [ "exit"; string_of_int code ]
    | Protocol.R_str s -> encode [ "str"; s ]
    | Protocol.R_batch rs -> encode ("batch" :: List.map response_body rs)

  let response r = seal "r" (response_body r)
end

let prop_decode_matches_oracle =
  QCheck.Test.make ~name:"wire decode agrees with the reference decoder" ~count:2000
    arb_wire_input (fun s -> Wire.decode s = Oracle.decode s)

let prop_encode_matches_oracle =
  QCheck.Test.make ~name:"wire encode and seal match the reference oracle" ~count:500
    (QCheck.make gen_fields) (fun fields ->
      String.equal (Wire.encode fields) (Oracle.encode fields)
      && String.equal
           (Protocol.encode_response (Protocol.R_names fields))
           (Oracle.response (Protocol.R_names fields)))

(* --- protocol messages ------------------------------------------------ *)

let ops =
  [
    Protocol.Mkdir "/work";
    Protocol.Rmdir "/work";
    Protocol.Unlink "/work/f";
    Protocol.Put { path = "/work/sim.exe"; data = "exe\000bits" };
    Protocol.Get "/work/out.dat";
    Protocol.Stat "/work";
    Protocol.Readdir "/";
    Protocol.Getacl "/work";
    Protocol.Setacl { path = "/work"; entry = "globus:/O=X/* rl" };
    Protocol.Rename { src = "/a"; dst = "/b" };
    Protocol.Exec { path = "/work/sim.exe"; args = [ "sim.exe"; "-n"; "5" ]; cwd = "/work" };
    Protocol.Checksum "/work/blob";
    Protocol.Whoami;
  ]

let request_roundtrip () =
  List.iter
    (fun op ->
      let req_id = if Protocol.idempotent op then "" else "tok123#1" in
      let req = Protocol.Op { token = "tok123"; req_id; op } in
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok (Protocol.Op { token; req_id = rid; op = op' }) ->
        Alcotest.(check string) "token" "tok123" token;
        Alcotest.(check string) "req_id" req_id rid;
        Alcotest.(check bool) (Protocol.operation_name op) true (op = op')
      | Ok (Protocol.Auth _) -> Alcotest.fail "became auth"
      | Error m -> Alcotest.fail m)
    ops

let auth_roundtrip_all_credentials () =
  let ca = Ca.create ~name:"CA" in
  let cert = Ca.issue ca (Subject.of_string_exn "/O=X/CN=F") in
  let realm = Kerberos.create ~realm:"R" in
  Kerberos.add_user realm "u" ~password:"p";
  let ticket =
    match Kerberos.login realm ~user:"u" ~password:"p" ~now:5L with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let creds =
    [
      Credential.Gsi cert;
      Credential.Krb ticket;
      Credential.Unix_account "dthain";
      Credential.Host "laptop.nowhere.edu";
    ]
  in
  match Protocol.decode_request (Protocol.encode_request (Protocol.Auth creds)) with
  | Ok (Protocol.Auth decoded) ->
    Alcotest.(check int) "count" 4 (List.length decoded);
    (* The decoded GSI certificate still verifies against the CA. *)
    (match List.hd decoded with
     | Credential.Gsi cert' ->
       Alcotest.(check bool) "signature survives wire" true (Ca.verify ca cert')
     | _ -> Alcotest.fail "first credential changed kind");
    (* The decoded ticket still verifies against the realm. *)
    (match List.nth decoded 1 with
     | Credential.Krb t' ->
       Alcotest.(check bool) "stamp survives wire" true (Kerberos.verify realm t' ~now:5L)
     | _ -> Alcotest.fail "second credential changed kind")
  | Ok _ -> Alcotest.fail "became op"
  | Error m -> Alcotest.fail m

let response_roundtrip () =
  let responses =
    [
      Protocol.R_ok;
      Protocol.R_error (Errno.EACCES, "denied");
      Protocol.R_auth { token = "t"; principal = "globus:/O=X/CN=F"; method_ = "globus" };
      Protocol.R_data "bulk\000payload";
      Protocol.R_stat { Protocol.ws_kind = "file"; ws_size = 42; ws_mtime = 7L };
      Protocol.R_names [ "a"; "b"; "c" ];
      Protocol.R_names [];
      Protocol.R_exit 3;
      Protocol.R_str "globus:/O=X/CN=F";
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error m -> Alcotest.fail m)
    responses

let batch_roundtrip () =
  let members =
    [
      Protocol.Get "/work/blob";
      Protocol.Put { path = "/work/out"; data = "x" };
      Protocol.Stat "/work";
      Protocol.Whoami;
    ]
  in
  let op = Protocol.Batch members in
  Alcotest.(check bool) "mixed batch is not idempotent" false
    (Protocol.idempotent op);
  Alcotest.(check bool) "read-only batch is idempotent" true
    (Protocol.idempotent
       (Protocol.Batch [ Protocol.Get "/a"; Protocol.Stat "/b" ]));
  Alcotest.(check string) "routes by first member" "/work/blob"
    (Protocol.operation_path op);
  let req = Protocol.Op { token = "tok"; req_id = "tok#1"; op } in
  (match Protocol.decode_request (Protocol.encode_request req) with
   | Ok (Protocol.Op { op = Protocol.Batch members'; _ }) ->
     Alcotest.(check bool) "members survive the wire" true (members = members')
   | Ok _ -> Alcotest.fail "decoded to something else"
   | Error m -> Alcotest.fail m);
  let r =
    Protocol.R_batch
      [
        Protocol.R_data "bulk";
        Protocol.R_ok;
        Protocol.R_error (Errno.EACCES, "denied");
        Protocol.R_str "who";
      ]
  in
  match Protocol.decode_response (Protocol.encode_response r) with
  | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
  | Error m -> Alcotest.fail m

let nested_batch_rejected () =
  let nested = Protocol.Batch [ Protocol.Batch [ Protocol.Get "/a" ] ] in
  let req = Protocol.Op { token = "tok"; req_id = ""; op = nested } in
  (match Protocol.decode_request (Protocol.encode_request req) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "nested batch request accepted");
  let r = Protocol.R_batch [ Protocol.R_batch [ Protocol.R_ok ] ] in
  match Protocol.decode_response (Protocol.encode_response r) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested batch response accepted"

let delegated_roundtrip_and_guards () =
  let ca = Ca.create ~name:"Grid CA" in
  let tok =
    Idbox_auth.Delegation.mint ca ~delegator:"globus:/O=Grid/CN=A"
      ~delegatee:"globus:/O=Grid/CN=B"
      ~rights:(Idbox_acl.Rights.of_string_exn "rx")
      ~prefix:"/work" ~now:3L ~ttl_ns:100L ~hops:2 ()
  in
  let op =
    Protocol.Delegated
      { chain = [ tok ]; op = Protocol.Exec { path = "/work/sim.exe";
                                              args = [ "sim.exe" ];
                                              cwd = "/work" } }
  in
  Alcotest.(check bool) "delegated exec is not idempotent" false
    (Protocol.idempotent op);
  Alcotest.(check bool) "delegated read is idempotent" true
    (Protocol.idempotent
       (Protocol.Delegated { chain = [ tok ]; op = Protocol.Whoami }));
  Alcotest.(check string) "routes by the inner operation" "/work/sim.exe"
    (Protocol.operation_path op);
  let req = Protocol.Op { token = "tok"; req_id = "tok#1"; op } in
  (match Protocol.decode_request (Protocol.encode_request req) with
   | Ok (Protocol.Op { op = Protocol.Delegated { chain; op = inner }; _ }) ->
     Alcotest.(check bool) "chain survives the wire" true (chain = [ tok ]);
     Alcotest.(check bool) "inner op survives the wire" true
       (inner = Protocol.Exec { path = "/work/sim.exe"; args = [ "sim.exe" ];
                                cwd = "/work" })
   | Ok _ -> Alcotest.fail "decoded to something else"
   | Error m -> Alcotest.fail m);
  (* Structural guards, enforced at decode: no delegation inside a
     batch, no batch inside a delegation, no nested delegation. *)
  List.iter
    (fun (ctx, bad) ->
      match
        Protocol.decode_request
          (Protocol.encode_request
             (Protocol.Op { token = "tok"; req_id = ""; op = bad }))
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" ctx)
    [
      ("delegated inside a batch",
       Protocol.Batch
         [ Protocol.Delegated { chain = [ tok ]; op = Protocol.Whoami } ]);
      ("batch inside a delegated",
       Protocol.Delegated
         { chain = [ tok ]; op = Protocol.Batch [ Protocol.Whoami ] });
      ("nested delegation",
       Protocol.Delegated
         { chain = [ tok ];
           op = Protocol.Delegated { chain = [ tok ]; op = Protocol.Whoami } });
    ];
  (* Revoke routes by the root key and replicates; Epoch is a read. *)
  Alcotest.(check string) "revoke routes by the root key" "/"
    (Protocol.operation_path (Protocol.Revoke "globus:/O=Grid/CN=A"));
  Alcotest.(check bool) "revoke is not idempotent" false
    (Protocol.idempotent (Protocol.Revoke "globus:/O=Grid/CN=A"));
  Alcotest.(check bool) "epoch is idempotent" true
    (Protocol.idempotent (Protocol.Epoch "globus:/O=Grid/CN=A"));
  match
    Protocol.decode_request
      (Protocol.encode_request
         (Protocol.Op { token = "t"; req_id = "t#2";
                        op = Protocol.Revoke "globus:/O=Grid/CN=A" }))
  with
  | Ok (Protocol.Op { op = Protocol.Revoke who; _ }) ->
    Alcotest.(check string) "revoke roundtrip" "globus:/O=Grid/CN=A" who
  | Ok _ -> Alcotest.fail "revoke decoded to something else"
  | Error m -> Alcotest.fail m

let malformed_messages_rejected () =
  List.iter
    (fun text ->
      match Protocol.decode_request text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "request %S accepted" text)
    [ ""; "4:oops"; Wire.encode [ "op" ]; Wire.encode [ "op"; "tok"; "zap" ] ];
  List.iter
    (fun text ->
      match Protocol.decode_response text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "response %S accepted" text)
    [ ""; Wire.encode [ "error"; "EWAT"; "m" ]; Wire.encode [ "exit"; "NaN" ] ]

(* Payload sizes at the edges of the copy path: empty, one byte, and
   more than one 64 KB server read. *)
let payloads = [ ""; "\000"; String.init 70_000 (fun i -> Char.chr (i * 31 land 0xff)) ]

let frames_match_oracle () =
  let ca = Ca.create ~name:"Grid CA" in
  let tok =
    Idbox_auth.Delegation.mint ca ~delegator:"globus:/O=Grid/CN=A"
      ~delegatee:"globus:/O=Grid/CN=B"
      ~rights:(Idbox_acl.Rights.of_string_exn "rx")
      ~prefix:"/work" ~now:3L ~ttl_ns:100L ~hops:2 ()
  in
  let realm = Kerberos.create ~realm:"R" in
  Kerberos.add_user realm "u" ~password:"p";
  let ticket =
    match Kerberos.login realm ~user:"u" ~password:"p" ~now:5L with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let op_of op = Protocol.Op { token = "tok123"; req_id = "tok123#9"; op } in
  let requests =
    List.map op_of ops
    @ List.map (fun data -> op_of (Protocol.Put { path = "/work/p"; data })) payloads
    @ [
        op_of (Protocol.Batch ops);
        op_of (Protocol.Batch []);
        op_of (Protocol.Delegated { chain = [ tok; tok ]; op = Protocol.Get "/work/x" });
        op_of (Protocol.Revoke "globus:/O=Grid/CN=A");
        op_of (Protocol.Epoch "globus:/O=Grid/CN=A");
        Protocol.Auth [];
        Protocol.Auth
          [ Credential.Gsi (Ca.issue ca (Subject.of_string_exn "/O=X/CN=F"));
            Credential.Krb ticket; Credential.Unix_account "dthain";
            Credential.Host "laptop.nowhere.edu" ];
      ]
  in
  List.iteri
    (fun i req ->
      Alcotest.(check string)
        (Printf.sprintf "request %d" i)
        (Oracle.request req) (Protocol.encode_request req))
    requests;
  let singles =
    [
      Protocol.R_ok;
      Protocol.R_error (Errno.EACCES, "denied");
      Protocol.R_auth { token = "t"; principal = "globus:/O=X/CN=F"; method_ = "globus" };
      Protocol.R_stat { Protocol.ws_kind = "file"; ws_size = 70_000; ws_mtime = -7L };
      Protocol.R_names [ "a"; ""; "c" ];
      Protocol.R_names [];
      Protocol.R_exit 255;
      Protocol.R_str "globus:/O=X/CN=F";
    ]
    @ List.map (fun d -> Protocol.R_data d) payloads
  in
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "response %d" i)
        (Oracle.response r) (Protocol.encode_response r))
    (singles @ [ Protocol.R_batch singles; Protocol.R_batch [] ])

(* --- the envelope's sum ------------------------------------------------ *)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* A fixed pattern whose every prefix up to 33 bytes is pinned: each
   tail length 0-15 of the 16-byte block, twice, and both block
   boundaries.  The sums come from a separate implementation that also
   reproduces SMHasher's verification value. *)
let pattern = String.init 33 (fun i -> Char.chr (((i * 73) + 41) land 0xff))

let pattern_sums =
  [ "00000000000000000000000000000000"; "eca6719b8f8a23ce9daad6fa006a75a1";
    "96674837d296ddc693a2f5cbad248b4a"; "cb718f2e714160080240fe23c70bc7e2";
    "179d366bd72b918002d26fa9ccd79896"; "0acdea793a119444238cc011f2d80c44";
    "84faf00f9abe793a78ad2b83990831e3"; "24dee7399a903a21612f8fc5640241ff";
    "3bf61fdae801e87f409c54cc13670139"; "a96ceca9e9d9c1d190500339409acf91";
    "95f3c9f8f0c02741c66ab587d5afbc07"; "2744f500a0f94d1b4a95c19553ba6ea2";
    "cfb5ae6cb97391dce20b344a7fe0f34e"; "70511af5ce9fc7f81b0d5a6b12e01ace";
    "b911707d9145ffc31a209593d28b7801"; "ec684a80c98315e39e193b29cc4231f8";
    "d80b2255bc6d7f49ddc4fc34df06fea4"; "3c0b67b9afc4fa9b4d6661124a6eb145";
    "3ff7e45cff34241eb0bbad9e30cf8e7c"; "8480cd57acdb18082affbd8e97e14fb0";
    "4ca7a16dc3f81b32275d82cedea9d67f"; "d4446d854c11e68b1d3b8203e5e7d378";
    "b7d6db861d2912909a21141d1996cf3e"; "a80e60027d3e37653ad07c9e593e32ba";
    "ed9e10bce3c78d05a413ffb27b9f6abc"; "cc345ed55da26a8afd0d9635639ae67b";
    "fd8d34b1bc050f4df61ae7da7d837070"; "6a71cd7f7b5e075c9227abd0f04ec435";
    "82e8c6d7d5e8b989f762abc4d01ec3ac"; "c2684decb56fadf3b29183d284573f4d";
    "87af2bcf4f56d95200b29656d00452f8"; "84033629f0452485321e2f1dc55e1ec7";
    "3b987a2fba56ce06edaf3251881f46c3"; "29b9b05249f65d2e8d7d976ba0343152" ]

let frame_sum_known_answers () =
  let sum s = hex (Protocol.frame_sum s ~pos:0 ~len:(String.length s)) in
  Alcotest.(check string) "empty input" (String.make 32 '0') (sum "");
  (* The published MurmurHash3_x64_128 vector. *)
  Alcotest.(check string) "quick brown fox" "6c1b07bc7bbc4be347939ac4a93c437a"
    (sum "The quick brown fox jumps over the lazy dog");
  (* SMHasher's check of the oracle itself: the keys {}, {0}, {0,1},
     ... {0..254} summed with seed 256 - length, their sums concatenated
     and summed with seed 0; the first four bytes, little-endian, are
     the published verification value. *)
  let keys = String.init 256 Char.chr in
  let sums =
    String.concat ""
      (List.init 256 (fun n ->
           Oracle.murmur3 ~seed:(Int64.of_int (256 - n)) (String.sub keys 0 n)))
  in
  Alcotest.(check int32) "oracle verification value" 0x6384BA69l
    (String.get_int32_le (Oracle.murmur3 sums) 0);
  List.iteri
    (fun n want ->
      let prefix = String.sub pattern 0 n in
      Alcotest.(check string) (Printf.sprintf "pattern length %d" n) want (sum prefix);
      Alcotest.(check string) (Printf.sprintf "oracle length %d" n) want
        (hex (Oracle.murmur3 prefix)))
    pattern_sums;
  (* A range is summed where it lies: the same bytes at any offset of a
     longer string give the same sum. *)
  let text = String.concat "" [ pattern; "The quick brown fox"; pattern ] in
  for pos = 1 to 40 do
    List.iter
      (fun len ->
        Alcotest.(check string)
          (Printf.sprintf "range %d+%d" pos len)
          (sum (String.sub text pos len))
          (hex (Protocol.frame_sum text ~pos ~len)))
      [ 0; 1; 7; 8; 9; 15; 16; 17; 31; 32; 33 ]
  done;
  match Protocol.frame_sum "abc" ~pos:2 ~len:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a range past the end was summed"

(* [Wire.encode_int] and [Wire.encode_int64] write what the C formatter
   writes: every power of ten and its neighbours, both signs, the
   extremes, and a seeded sweep. *)
let wire_integers_match_formatter () =
  let rng = Random.State.make [| 0x1e7 |] in
  let ints =
    [ 0; 1; -1; 9; 10; 11; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.concat_map
        (fun k ->
          let p = int_of_float (10. ** float_of_int k) in
          [ p - 1; p; p + 1; -p + 1; -p; -p - 1 ])
        (List.init 18 (fun k -> k + 1))
    @ List.init 2000 (fun _ -> Random.State.bits rng - Random.State.bits rng)
  in
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (Wire.encode_int n))
    ints;
  List.iter
    (fun v -> Alcotest.(check string) (Int64.to_string v) (Int64.to_string v) (Wire.encode_int64 v))
    ([ Int64.max_int; Int64.min_int; Int64.succ Int64.min_int; Int64.of_int max_int;
       Int64.succ (Int64.of_int max_int); Int64.of_int min_int; Int64.pred (Int64.of_int min_int) ]
    @ List.map Int64.of_int ints
    @ List.init 2000 (fun _ -> Random.State.int64 rng Int64.max_int))

(* Random lengths from 0 to 300 at random offsets of a longer string:
   the sum of each range where it lies equals the byte-at-a-time
   oracle's sum of a copy of it. *)
let prop_frame_sum_matches_oracle =
  QCheck.Test.make ~name:"frame sum of any range matches the oracle" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 300) (int_range 0 300) (int_range 0 16) >>= fun (pos, len, after) ->
         map (fun s -> (s, pos, len)) (string_size ~gen:char (return (pos + len + after)))))
    (fun (s, pos, len) ->
      String.equal
        (Protocol.frame_sum s ~pos ~len)
        (Oracle.murmur3 (String.sub s pos len)))

(* Every byte of [frame] XORed with each of [masks] must fail to decode.
   One copy is flipped in place and back, and read through a string
   view: a decoder copies out what it keeps, so no view outlives its
   decode. *)
let reject_damage what decodes frame ~masks =
  let buf = Bytes.of_string frame in
  let view = Bytes.unsafe_to_string buf in
  for i = 0 to Bytes.length buf - 1 do
    List.iter
      (fun mask ->
        let c = Bytes.get buf i in
        Bytes.set buf i (Char.chr (Char.code c lxor mask));
        let accepted = decodes view in
        Bytes.set buf i c;
        if accepted then Alcotest.failf "%s: byte %d xor 0x%02x accepted" what i mask)
      masks
  done

let decodes_request s = Result.is_ok (Protocol.decode_request s)
let decodes_response s = Result.is_ok (Protocol.decode_response s)

let put_frame size =
  Protocol.encode_request
    (Protocol.Op
       { token = "tok"; req_id = "tok#1";
         op = Protocol.Put { path = "/work/f"; data = String.make size 'q' } })

(* Every single-byte change to a small frame -- all 255 masks at every
   offset, in the tag, the sum, the headers and the body -- fails to
   decode, and so does every proper prefix. *)
let single_byte_damage_rejected () =
  let every_mask = List.init 255 (fun m -> m + 1) in
  List.iter
    (fun (what, decodes, frame) ->
      Alcotest.(check bool) (what ^ " decodes intact") true (decodes frame);
      reject_damage what decodes frame ~masks:every_mask;
      for n = 0 to String.length frame - 1 do
        if decodes (String.sub frame 0 n) then
          Alcotest.failf "%s: prefix of %d bytes accepted" what n
      done)
    [
      ("R_ok", decodes_response, Protocol.encode_response Protocol.R_ok);
      ("128 B R_data", decodes_response,
       Protocol.encode_response (Protocol.R_data (String.init 128 (fun i -> Char.chr i))));
      ("64 B put", decodes_request, put_frame 64);
    ]

(* A frame larger than one 64 KB server read: the lowest and highest
   bit of every byte. *)
let large_frame_bit_flips_rejected () =
  let frame = put_frame 70_000 in
  Alcotest.(check bool) "decodes intact" true (decodes_request frame);
  reject_damage "70,000 B put" decodes_request frame ~masks:[ 0x01; 0x80 ]

(* The new properties draw from the chaos seed, so CI's seed loop
   reruns them under extra seeds. *)
let seed =
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 2005)
  | None -> 2005

let suite =
  [
    Alcotest.test_case "wire roundtrip" `Quick wire_roundtrip_cases;
    Alcotest.test_case "wire rejects garbage" `Quick wire_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "request roundtrip" `Quick request_roundtrip;
    Alcotest.test_case "auth roundtrip" `Quick auth_roundtrip_all_credentials;
    Alcotest.test_case "response roundtrip" `Quick response_roundtrip;
    Alcotest.test_case "malformed rejected" `Quick malformed_messages_rejected;
    Alcotest.test_case "batch roundtrip" `Quick batch_roundtrip;
    Alcotest.test_case "nested batch rejected" `Quick nested_batch_rejected;
    Alcotest.test_case "delegated roundtrip and structural guards" `Quick
      delegated_roundtrip_and_guards;
    Alcotest.test_case "frames match the reference oracle" `Quick frames_match_oracle;
    Alcotest.test_case "frame sum known answers" `Quick frame_sum_known_answers;
    Alcotest.test_case "every single-byte change rejected" `Quick
      single_byte_damage_rejected;
    Alcotest.test_case "70 KB frame bit flips rejected" `Slow
      large_frame_bit_flips_rejected;
    Alcotest.test_case "wire integers match the formatter" `Quick
      wire_integers_match_formatter;
  ]
  @ List.map
      (fun test -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test)
      [ prop_decode_canonical; prop_range_is_substring; prop_decode_matches_oracle;
        prop_encode_matches_oracle; prop_frame_sum_matches_oracle ]
