(** The Chirp protocol: typed requests and responses with an explicit
    wire encoding.

    The protocol "closely resembles the Unix I/O interface" (paper §4),
    extended with [getacl]/[setacl] for the virtual user space and the
    paper's new [exec] call for remote execution inside an identity
    box.  Sessions are token-based: [Auth] negotiates a principal and
    yields a token that stamps every subsequent operation. *)

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
      (** MD5 of a remote file — end-to-end transfer integrity without
          fetching the data again. *)
  | Whoami
  | Batch of operation list
      (** N operations pipelined in one envelope: one checksum, one
          request ID (so a retried mutation batch deduplicates as a
          unit), executed in order server-side with per-member results
          in {!R_batch}.  Batches never nest — the decoder rejects a
          batch inside a batch. *)
  | Delegated of {
      chain : Idbox_auth.Delegation.token list;
      op : operation;
    }
      (** [op] performed under a delegation chain (root first).  The
          server validates the chain against its trust anchors with the
          authenticated session principal as holder, then runs [op] as
          the {e root delegator} under the chain's attenuated grant and
          scope, recording every hop in the audit ring.  Servers accept
          only [Exec] and read-only inner operations — a delegated
          mutation in the WAL would re-validate its chain at replay
          time, after the tokens may have expired, and diverge.  The
          decoder rejects nesting and batches in either direction. *)
  | Revoke of string
      (** Bump the named delegator's revocation epoch: every chain with
          a hop that delegator minted under a lower epoch dies
          cluster-wide.  Routes by ["/"], so the cluster replicates it
          to every member like ACL metadata. *)
  | Epoch of string
      (** Read the named delegator's current revocation epoch (as
          {!R_str}); routes by ["/"]. *)

type request =
  | Auth of Idbox_auth.Credential.t list
      (** Credentials in client preference order. *)
  | Op of { token : string; req_id : string; op : operation }
      (** [req_id] is a client-generated identifier for non-idempotent
          operations ([""] for idempotent ones): the server deduplicates
          retries carrying the same id within its dedup window, making
          retried writes and execs exactly-once.  See {!idempotent}. *)

type wire_stat = {
  ws_kind : string;  (** ["file"], ["dir"] or ["link"]. *)
  ws_size : int;
  ws_mtime : int64;
}

type response =
  | R_ok
  | R_error of Idbox_vfs.Errno.t * string
  | R_auth of { token : string; principal : string; method_ : string }
  | R_data of string
  | R_stat of wire_stat
  | R_names of string list
  | R_exit of int
  | R_str of string
  | R_batch of response list
      (** Member responses of a {!Batch}, in request order.  A member
          failure is its own [R_error]; later members still execute. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
(** Messages travel in a checksummed envelope, so bytes flipped or cut
    by the (fault-injected) network surface as a decode [Error] — which
    retry layers treat as a transport fault — never as a silently wrong
    value.  The envelope's sum is {!frame_sum} of the body. *)

val frame_sum : string -> pos:int -> len:int -> string
(** The envelope's 16-byte sum of the [len] bytes of [s] from [pos]:
    MurmurHash3_x64_128 with seed 0, h1 then h2, each little-endian.
    It catches damage in flight; it carries no key, so it does not
    detect tampering ([Checksum] answers MD5).  Raises
    [Invalid_argument] if the range is not within [s]. *)

val operation_name : operation -> string
(** For logging and per-op accounting. *)

val operation_path : operation -> string
(** The path the operation is routed by: the object it names (the
    source for [Rename]), or ["/"] for [Whoami].  A [Batch] routes by
    its first member — callers batch same-shard operations.  The
    cluster router shards on this. *)

val operation_to_wire : operation -> string
(** One operation as a self-contained blob (no token, no request ID) —
    the unit the cluster replication channel forwards. *)

val operation_of_wire : string -> (operation, string) result
(** Inverse of {!operation_to_wire}; total on damaged input. *)

val idempotent : operation -> bool
(** True for operations a client may re-send blindly on a lost reply
    ([get], [stat], [readdir], [getacl], [checksum], [whoami], and
    batches of only those); the rest need a request ID to retry
    safely. *)

val shed_message : retry_after_ns:int64 -> string -> string
(** The message an overloaded server sheds with: the human-readable
    [reason] plus a machine-readable [retry_after_ns=<n>] hint. *)

val retry_after_of_message : string -> int64 option
(** Extract the retry-after hint from a shed error message, if one is
    present — the client side of {!shed_message}. *)
