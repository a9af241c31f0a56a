module Credential = Idbox_auth.Credential
module Ca = Idbox_auth.Ca
module Kerberos = Idbox_auth.Kerberos
module Delegation = Idbox_auth.Delegation
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

type operation =
  | Mkdir of string
  | Rmdir of string
  | Unlink of string
  | Put of { path : string; data : string }
  | Get of string
  | Stat of string
  | Readdir of string
  | Getacl of string
  | Setacl of { path : string; entry : string }
  | Rename of { src : string; dst : string }
  | Exec of { path : string; args : string list; cwd : string }
  | Checksum of string
  | Whoami
  | Batch of operation list
      (* N operations pipelined in one envelope: one checksum, one
         request ID, executed in order server-side.  Never nested. *)
  | Delegated of { chain : Delegation.token list; op : operation }
      (* [op] performed under the presented delegation chain: the server
         validates the chain against its trust anchors and runs [op] as
         the root delegator under the attenuated grant.  Never nests and
         never wraps a batch. *)
  | Revoke of string
      (* Bump the named delegator's revocation epoch.  Routes by ["/"]
         so the cluster fans it to every member, like ACL metadata. *)
  | Epoch of string
      (* Read the named delegator's current revocation epoch. *)

type request =
  | Auth of Credential.t list
  | Op of { token : string; req_id : string; op : operation }

type wire_stat = {
  ws_kind : string;
  ws_size : int;
  ws_mtime : int64;
}

type response =
  | R_ok
  | R_error of Errno.t * string
  | R_auth of { token : string; principal : string; method_ : string }
  | R_data of string
  | R_stat of wire_stat
  | R_names of string list
  | R_exit of int
  | R_str of string
  | R_batch of response list  (* member responses, in request order *)

(* Operations safe to re-send blindly: re-executing them cannot change
   server state beyond what the first execution did.  Everything else
   must carry a request ID so the server can deduplicate retries. *)
let rec idempotent = function
  | Get _ | Stat _ | Readdir _ | Getacl _ | Checksum _ | Whoami | Epoch _ ->
    true
  | Mkdir _ | Rmdir _ | Unlink _ | Put _ | Setacl _ | Rename _ | Exec _
  | Revoke _ -> false
  (* A batch is blindly re-sendable only when every member is. *)
  | Batch ops -> List.for_all idempotent ops
  (* A delegated operation is as re-sendable as the operation itself:
     chain validation has no server-side effect. *)
  | Delegated { op; _ } -> idempotent op

(* The path an operation is routed by: the object it names, or — for
   two-path operations — its primary (source) path.  [Whoami] has no
   path and routes to the root. *)
let rec operation_path = function
  | Mkdir p | Rmdir p | Unlink p | Get p | Stat p | Readdir p | Getacl p
  | Checksum p -> p
  | Put { path; _ } | Setacl { path; _ } | Exec { path; _ } -> path
  | Rename { src; _ } -> src
  | Whoami -> "/"
  | Batch (op :: _) -> operation_path op
  | Batch [] -> "/"
  | Delegated { op; _ } -> operation_path op
  (* Revocation epochs replicate everywhere: route by the root so the
     cluster's root-key rule fans the write to every member. *)
  | Revoke _ | Epoch _ -> "/"

let operation_name = function
  | Mkdir _ -> "mkdir"
  | Rmdir _ -> "rmdir"
  | Unlink _ -> "unlink"
  | Put _ -> "put"
  | Get _ -> "get"
  | Stat _ -> "stat"
  | Readdir _ -> "readdir"
  | Getacl _ -> "getacl"
  | Setacl _ -> "setacl"
  | Rename _ -> "rename"
  | Exec _ -> "exec"
  | Checksum _ -> "checksum"
  | Whoami -> "whoami"
  | Batch _ -> "batch"
  | Delegated _ -> "delegated"
  | Revoke _ -> "revoke"
  | Epoch _ -> "epoch"

(* --- credentials ---------------------------------------------------- *)

let encode_credential = function
  | Credential.Gsi cert ->
    [ "gsi";
      Subject.to_string cert.Ca.subject;
      cert.Ca.issuer;
      string_of_int cert.Ca.serial;
      cert.Ca.signature ]
  | Credential.Krb ticket ->
    [ "krb";
      ticket.Kerberos.user;
      ticket.Kerberos.realm;
      Int64.to_string ticket.Kerberos.issued_at;
      Int64.to_string ticket.Kerberos.expires_at;
      ticket.Kerberos.stamp ]
  | Credential.Unix_account name -> [ "unix"; name ]
  | Credential.Host host -> [ "host"; host ]

let decode_credential fields =
  match fields with
  | [ "gsi"; subject; issuer; serial; signature ] ->
    (match (Subject.of_string subject, int_of_string_opt serial) with
     | Ok subject, Some serial ->
       Ok (Credential.Gsi { Ca.subject; issuer; serial; signature })
     | Error e, _ -> Error ("bad certificate subject: " ^ e)
     | _, None -> Error "bad certificate serial")
  | [ "krb"; user; realm; issued; expires; stamp ] ->
    (match (Int64.of_string_opt issued, Int64.of_string_opt expires) with
     | Some issued_at, Some expires_at ->
       Ok (Credential.Krb { Kerberos.user; realm; issued_at; expires_at; stamp })
     | _ -> Error "bad ticket timestamps")
  | [ "unix"; name ] -> Ok (Credential.Unix_account name)
  | [ "host"; host ] -> Ok (Credential.Host host)
  | _ -> Error "unrecognized credential"

(* Every protocol message travels inside a checksummed envelope:
   [["q"|"r"; sum(body); body]].  The simulated network can flip or cut
   response bytes; without the envelope a corrupted [R_data] would be
   indistinguishable from a good one.  With it, damage surfaces as a
   decode error the caller can retry.

   The sum is MurmurHash3_x64_128 (seed 0; h1 then h2, little-endian):
   128 bits that catch damage in flight at a fraction of MD5's cost.
   It carries no key, so it detects damage, not tampering.

   [seal] lays the frame out in one buffer: the body's fields are
   encoded in place and summed where they lie.  [unseal] checks the
   sum over the received frame and decodes the body from its span,
   so a payload is copied once per side. *)
let sum_size = 16

(* [sum_into src pos len dst at] sums the [len] bytes of [src] from
   [pos] into the 16 bytes of [dst] at [at]: a C kernel
   (frame_sum.c) over 16-byte blocks as two 8-byte loads.  It reads and
   writes no OCaml value but those bytes, so its callers keep both
   ranges inside their buffers. *)
external sum_into : Bytes.t -> int -> int -> Bytes.t -> int -> unit
  = "idbox_frame_sum"
[@@noalloc]

let frame_sum s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Protocol.frame_sum";
  let out = Bytes.create sum_size in
  sum_into (Bytes.unsafe_of_string s) pos len out 0;
  Bytes.unsafe_to_string out

let seal tag fields =
  let body = Wire.size fields in
  let buf =
    Bytes.create
      (Wire.field_size (String.length tag)
      + Wire.field_size sum_size + Wire.field_size body)
  in
  let sum_at = Wire.write_header buf (Wire.write buf 0 [ tag ]) sum_size in
  let body_at = Wire.write_header buf (sum_at + sum_size) body in
  ignore (Wire.write buf body_at fields);
  sum_into buf body_at body buf sum_at;
  Bytes.unsafe_to_string buf

let span_is text (at, len) s =
  len = String.length s
  &&
  let rec same i = i = len || (text.[at + i] = s.[i] && same (i + 1)) in
  same 0

(* Errors come in the order a whole-frame decode finds them: a framing
   fault anywhere, then the frame's shape, then its sum. *)
let unseal tag text =
  match Wire.spans text ~pos:0 ~len:(String.length text) with
  | Error e -> Error e
  | Ok [ t; sum; (body_at, body_len) ] when span_is text t tag ->
    if span_is text sum (frame_sum text ~pos:body_at ~len:body_len) then
      Wire.decode_range text ~pos:body_at ~len:body_len
    else Error "checksum mismatch (frame damaged in flight)"
  | Ok _ -> Error "not a sealed frame"

let rec operation_fields = function
  | Mkdir p -> [ "mkdir"; p ]
  | Rmdir p -> [ "rmdir"; p ]
  | Unlink p -> [ "unlink"; p ]
  | Put { path; data } -> [ "put"; path; data ]
  | Get p -> [ "get"; p ]
  | Stat p -> [ "stat"; p ]
  | Readdir p -> [ "readdir"; p ]
  | Getacl p -> [ "getacl"; p ]
  | Setacl { path; entry } -> [ "setacl"; path; entry ]
  | Rename { src; dst } -> [ "rename"; src; dst ]
  | Exec { path; args; cwd } -> "exec" :: path :: cwd :: args
  | Checksum p -> [ "checksum"; p ]
  | Whoami -> [ "whoami" ]
  | Batch ops -> "batch" :: List.map operation_to_wire ops
  | Delegated { chain; op } ->
    "delegated" :: operation_to_wire op
    :: List.map (fun tok -> Wire.encode (Delegation.token_fields tok)) chain
  | Revoke p -> [ "revoke"; p ]
  | Epoch p -> [ "epoch"; p ]

(* A single self-contained blob for one operation, used by the cluster
   replication channel to forward a mutation verbatim, and by [Batch] to
   keep the outer message a flat field list. *)
and operation_to_wire op = Wire.encode (operation_fields op)

(* Each credential is itself a wire-framed blob so the outer message
   stays a flat field list. *)
let encode_request req =
  seal "q"
    (match req with
     | Auth creds ->
       "auth" :: List.map (fun c -> Wire.encode (encode_credential c)) creds
     | Op { token; req_id; op } -> "op" :: token :: req_id :: operation_fields op)

let rec decode_operation = function
  | [ "mkdir"; p ] -> Ok (Mkdir p)
  | [ "rmdir"; p ] -> Ok (Rmdir p)
  | [ "unlink"; p ] -> Ok (Unlink p)
  | [ "put"; path; data ] -> Ok (Put { path; data })
  | [ "get"; p ] -> Ok (Get p)
  | [ "stat"; p ] -> Ok (Stat p)
  | [ "readdir"; p ] -> Ok (Readdir p)
  | [ "getacl"; p ] -> Ok (Getacl p)
  | [ "setacl"; path; entry ] -> Ok (Setacl { path; entry })
  | [ "rename"; src; dst ] -> Ok (Rename { src; dst })
  | "exec" :: path :: cwd :: args -> Ok (Exec { path; args; cwd })
  | [ "checksum"; p ] -> Ok (Checksum p)
  | [ "whoami" ] -> Ok Whoami
  | "batch" :: blobs ->
    (* Nesting is rejected at decode time: a batch of batches would give
       retries and dedup ambiguous semantics. *)
    let rec members acc = function
      | [] -> Ok (Batch (List.rev acc))
      | blob :: rest ->
        (match operation_of_wire blob with
         | Ok (Batch _) -> Error "nested batch"
         | Ok (Delegated _) -> Error "delegated operation inside a batch"
         | Ok op -> members (op :: acc) rest
         | Error e -> Error e)
    in
    members [] blobs
  | "delegated" :: op_blob :: token_blobs ->
    (* One envelope, one chain, one operation.  Wrapping a batch or
       another delegated envelope would give the per-hop audit and
       dedup story ambiguous semantics — rejected at decode time. *)
    (match operation_of_wire op_blob with
     | Error e -> Error e
     | Ok (Batch _) -> Error "batch inside a delegated operation"
     | Ok (Delegated _) -> Error "nested delegated operation"
     | Ok op ->
       let rec tokens acc = function
         | [] -> Ok (Delegated { chain = List.rev acc; op })
         | blob :: rest ->
           (match Wire.decode blob with
            | Error e -> Error e
            | Ok fields ->
              (match Delegation.token_of_fields fields with
               | Ok tok -> tokens (tok :: acc) rest
               | Error e -> Error e))
       in
       tokens [] token_blobs)
  | [ "revoke"; p ] -> Ok (Revoke p)
  | [ "epoch"; p ] -> Ok (Epoch p)
  | op :: _ -> Error (Printf.sprintf "unknown operation %S" op)
  | [] -> Error "empty operation"

and operation_of_wire blob =
  match Wire.decode blob with
  | Error e -> Error e
  | Ok fields -> decode_operation fields

let decode_request text =
  match unseal "q" text with
  | Error e -> Error e
  | Ok body ->
    (match body with
     | "auth" :: blobs ->
       let rec decode_all acc = function
         | [] -> Ok (Auth (List.rev acc))
         | blob :: rest ->
           (match Wire.decode blob with
            | Error e -> Error e
            | Ok fields ->
              (match decode_credential fields with
               | Ok cred -> decode_all (cred :: acc) rest
               | Error e -> Error e))
       in
       decode_all [] blobs
     | "op" :: token :: req_id :: fields ->
       (match decode_operation fields with
        | Ok op -> Ok (Op { token; req_id; op })
        | Error e -> Error e)
     | _ -> Error "unrecognized request")

let rec response_fields = function
  | R_ok -> [ "ok" ]
  | R_error (errno, msg) -> [ "error"; Errno.to_string errno; msg ]
  | R_auth { token; principal; method_ } -> [ "auth"; token; principal; method_ ]
  | R_data data -> [ "data"; data ]
  | R_stat { ws_kind; ws_size; ws_mtime } ->
    [ "stat"; ws_kind; Wire.encode_int ws_size; Wire.encode_int64 ws_mtime ]
  | R_names names -> "names" :: names
  | R_exit code -> [ "exit"; Wire.encode_int code ]
  | R_str s -> [ "str"; s ]
  | R_batch rs -> "batch" :: List.map (fun r -> Wire.encode (response_fields r)) rs

(* One seal around the whole body: a batch pays a single checksum. *)
let encode_response r = seal "r" (response_fields r)

let rec decode_response_fields = function
  | [ "ok" ] -> Ok R_ok
  | [ "error"; errno; msg ] ->
    (match Errno.of_string errno with
     | Some e -> Ok (R_error (e, msg))
     | None -> Error (Printf.sprintf "unknown errno %S" errno))
  | [ "auth"; token; principal; method_ ] -> Ok (R_auth { token; principal; method_ })
  | [ "data"; data ] -> Ok (R_data data)
  | [ "stat"; ws_kind; size; mtime ] ->
    (match (int_of_string_opt size, Int64.of_string_opt mtime) with
     | Some ws_size, Some ws_mtime -> Ok (R_stat { ws_kind; ws_size; ws_mtime })
     | _ -> Error "bad stat fields")
  | "names" :: names -> Ok (R_names names)
  | [ "exit"; code ] ->
    (match int_of_string_opt code with
     | Some code -> Ok (R_exit code)
     | None -> Error "bad exit code")
  | [ "str"; s ] -> Ok (R_str s)
  | "batch" :: blobs ->
    let rec members acc = function
      | [] -> Ok (R_batch (List.rev acc))
      | blob :: rest ->
        (match Result.bind (Wire.decode blob) decode_response_fields with
         | Ok (R_batch _) -> Error "nested batch response"
         | Ok r -> members (r :: acc) rest
         | Error e -> Error e)
    in
    members [] blobs
  | _ -> Error "unrecognized response"

let decode_response text = Result.bind (unseal "r" text) decode_response_fields

(* {1 Shed responses}

   An overloaded server answers EAGAIN with a machine-readable
   retry-after hint riding the error message, so a client can wait
   exactly as long as the server asked instead of guessing.  The hint
   is plain text inside the message — old clients see a human-readable
   reason and fall back to their own backoff. *)

let shed_message ~retry_after_ns reason =
  Printf.sprintf "%s; retry_after_ns=%Ld" reason retry_after_ns

let retry_after_of_message msg =
  let tag = "retry_after_ns=" in
  let tlen = String.length tag in
  let mlen = String.length msg in
  let rec find i =
    if i + tlen > mlen then None
    else if String.equal (String.sub msg i tlen) tag then Some (i + tlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < mlen && msg.[!stop] >= '0' && msg.[!stop] <= '9' do
      incr stop
    done;
    if !stop = start then None
    else Int64.of_string_opt (String.sub msg start (!stop - start))
