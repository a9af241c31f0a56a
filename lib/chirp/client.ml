module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Breaker = Idbox_net.Breaker
module Metrics = Idbox_kernel.Metrics
module Clock = Idbox_kernel.Clock
module Errno = Idbox_vfs.Errno
module Path = Idbox_vfs.Path
module Inode = Idbox_vfs.Inode
module Fs = Idbox_vfs.Fs

type retry_policy = {
  timeout_ns : int64;
  max_attempts : int;
  base_backoff_ns : int64;
  max_backoff_ns : int64;
  retry_budget : int;
  lease_ns : int64;
}

let default_policy =
  {
    timeout_ns = 1_000_000_000L;
    max_attempts = 4;
    base_backoff_ns = 1_000_000L;
    max_backoff_ns = 100_000_000L;
    retry_budget = 100;
    lease_ns = 2_000_000_000L;
  }

(* An NFS-style lease over attribute reads: a cached [Stat]/[Getacl]
   response served without a round trip while the lease holds.  Flushed
   wholesale on any mutation reply through this client and on reauth
   (the server restarted under us); bounded in between by [lease_ns]. *)
type lease = {
  le_at : int64;
  le_resp : Protocol.response;
}

type t = {
  cl_net : Network.t;
  cl_addr : string;
  cl_src : string;
  mutable cl_token : string;
  cl_id : string;  (* stable request-ID prefix, fixed at first auth *)
  cl_principal : string;
  cl_method : string;
  cl_creds : Idbox_auth.Credential.t list;
  cl_policy : retry_policy;
  cl_rng : Fault.rng;
  mutable cl_budget : int;
  mutable cl_retries : int;
  mutable cl_req_counter : int;
  cl_leases : (string, lease) Hashtbl.t;
  cl_counters : Metrics.handles;  (* interned on first use *)
  (* A circuit breaker over this client's one server: repeated
     transport failures trip it, and while it is open calls fail fast
     with the last seen errno instead of burning a timeout each.
     Shed responses (EAGAIN) never feed it — an answer is liveness. *)
  cl_breaker : Breaker.t;
}

let principal t = t.cl_principal
let auth_method t = t.cl_method
let addr t = t.cl_addr
let retries t = t.cl_retries
let budget_left t = t.cl_budget
let breaker t = t.cl_breaker

let metric_on net name = Metrics.incr (Metrics.counter (Network.metrics net) name)
let metric t name = Metrics.incr (Metrics.handle t.cl_counters name)

let leases_on t = Int64.compare t.cl_policy.lease_ns 0L > 0

let lease_get t key =
  if not (leases_on t) then None
  else begin
    let now = Clock.now (Network.clock t.cl_net) in
    match Hashtbl.find_opt t.cl_leases key with
    | Some l when Int64.sub now l.le_at <= t.cl_policy.lease_ns ->
      metric t "chirp.lease.hit";
      Some l.le_resp
    | Some _ ->
      Hashtbl.remove t.cl_leases key;
      metric t "chirp.lease.miss";
      None
    | None ->
      metric t "chirp.lease.miss";
      None
  end

let lease_put t key resp =
  if leases_on t then
    Hashtbl.replace t.cl_leases key
      { le_at = Clock.now (Network.clock t.cl_net); le_resp = resp }

let flush_leases t =
  if Hashtbl.length t.cl_leases > 0 then begin
    metric t "chirp.lease.invalidate";
    Hashtbl.reset t.cl_leases
  end

(* Transport-level failures a retry can plausibly cure.  EAGAIN covers a
   server shedding load (session table full): back off and try again. *)
let transient = function
  | Errno.ETIMEDOUT | Errno.ECONNRESET | Errno.ECONNREFUSED
  | Errno.EHOSTUNREACH | Errno.EAGAIN -> true
  | _ -> false

(* Bounded exponential backoff with deterministic jitter: attempt [n]
   (1-based) sleeps in [cap/2, cap] where cap = min(base * 2^(n-1), max).
   The jitter draw comes from the client's seeded stream, so a given
   client replays the same backoff schedule every run. *)
let backoff_ns policy rng attempt =
  let rec grow cap n =
    if n <= 0 || cap >= policy.max_backoff_ns then cap
    else grow (Int64.mul cap 2L) (n - 1)
  in
  let cap = grow policy.base_backoff_ns (attempt - 1) in
  let cap = if cap > policy.max_backoff_ns then policy.max_backoff_ns else cap in
  let half = Int64.div cap 2L in
  Int64.add half (Int64.of_int (Fault.int_below rng (Int64.to_int half + 1)))

(* One authenticated exchange with transport retries (used by both
   [connect] and session re-establishment).  Auth retries are bounded by
   [max_attempts] alone: there is no session budget yet to spend. *)
let auth_exchange net ~src ~policy ~rng ~addr ~credentials =
  let payload = Protocol.encode_request (Protocol.Auth credentials) in
  let rec go attempt =
    let retry ?(shed = false) () =
      metric_on net (if shed then "chirp.retry.shed" else "chirp.retry");
      Clock.advance (Network.clock net) (backoff_ns policy rng attempt);
      go (attempt + 1)
    in
    match Network.call net ~src ~timeout_ns:policy.timeout_ns ~addr payload with
    | Error e when transient e && attempt < policy.max_attempts -> retry ()
    | Error e -> Error (`Transport e)
    | Ok text ->
      (match Protocol.decode_response text with
       | Error _ when attempt < policy.max_attempts -> retry ()
       | Error msg -> Error (`Decode msg)
       | Ok (Protocol.R_auth { token; principal; method_ }) ->
         Ok (token, principal, method_)
       | Ok (Protocol.R_error (Errno.EAGAIN, _))
         when attempt < policy.max_attempts ->
         (* The server shed us (session table full / brownout): a
            distinct kind of retry — the peer is alive, just busy. *)
         retry ~shed:true ()
       | Ok (Protocol.R_error (e, _))
         when transient e && attempt < policy.max_attempts -> retry ()
       | Ok (Protocol.R_error (_, msg)) -> Error (`Server msg)
       | Ok _ -> Error (`Decode "unexpected response"))
  in
  go 1

let connect ?(src = "client") ?(policy = default_policy) net ~addr ~credentials =
  let rng = Fault.rng (Int64.of_int (Hashtbl.hash (addr ^ "|" ^ src))) in
  match auth_exchange net ~src ~policy ~rng ~addr ~credentials with
  | Error (`Transport e) -> Error ("connect: " ^ Errno.message e)
  | Error (`Decode msg) -> Error ("connect: bad response: " ^ msg)
  | Error (`Server msg) -> Error msg
  | Ok (token, principal, method_) ->
    Ok
      {
        cl_net = net;
        cl_addr = addr;
        cl_src = src;
        cl_token = token;
        cl_id = token;
        cl_principal = principal;
        cl_method = method_;
        cl_creds = credentials;
        cl_policy = policy;
        cl_rng = rng;
        cl_budget = policy.retry_budget;
        cl_retries = 0;
        cl_req_counter = 0;
        cl_leases = Hashtbl.create 16;
        cl_counters = Metrics.handles (Network.metrics net);
        cl_breaker =
          Breaker.create ~threshold:8 ~reset_ns:800_000_000L
            ~prefix:"chirp.breaker" ~clock:(Network.clock net)
            ~metrics:(Network.metrics net) addr;
      }

(* The server forgot our session (restart, or idle expiry): negotiate a
   fresh one with the credentials we kept.  The new session MUST map to
   the same principal — a different answer means the server's identity
   mapping changed under us, and silently adopting it would let one
   user's retries run under another's name. *)
let reauth t =
  metric t "chirp.reauth";
  match
    auth_exchange t.cl_net ~src:t.cl_src ~policy:t.cl_policy ~rng:t.cl_rng
      ~addr:t.cl_addr ~credentials:t.cl_creds
  with
  | Error (`Transport e) -> Error e
  | Error (`Decode _) -> Error Errno.EIO
  | Error (`Server _) -> Error Errno.EACCES
  | Ok (token, principal, _method) ->
    if String.equal principal t.cl_principal then begin
      t.cl_token <- token;
      (* ESTALE means the server forgot us — likely a restart, after
         which any cached attribute may describe a lost world. *)
      flush_leases t;
      Ok ()
    end
    else begin
      metric t "chirp.reauth.mismatch";
      Error Errno.EPERM
    end

let call t op =
  let req_id =
    if Protocol.idempotent op then ""
    else begin
      t.cl_req_counter <- t.cl_req_counter + 1;
      Printf.sprintf "%s#%d" t.cl_id t.cl_req_counter
    end
  in
  let payload () =
    Protocol.encode_request (Protocol.Op { token = t.cl_token; req_id; op })
  in
  let rec go attempt reauthed =
    let retry ?hint ?(shed = false) e =
      if attempt < t.cl_policy.max_attempts && t.cl_budget > 0 then begin
        t.cl_budget <- t.cl_budget - 1;
        t.cl_retries <- t.cl_retries + 1;
        (* Shed retries are counted apart from timeout retries: they
           mean "the cluster is saturated", not "the network is bad". *)
        metric t (if shed then "chirp.retry.shed" else "chirp.retry");
        let pause = backoff_ns t.cl_policy t.cl_rng attempt in
        (* Honor the server's retry-after hint when it asks for longer
           than our own backoff would wait — bounded by the call
           timeout, so a bogus hint cannot park us forever. *)
        let pause =
          match hint with
          | Some h -> Int64.max pause (Int64.min h t.cl_policy.timeout_ns)
          | None -> pause
        in
        Clock.advance (Network.clock t.cl_net) pause;
        go (attempt + 1) reauthed
      end
      else begin
        metric t "chirp.giveup";
        Error e
      end
    in
    if not (Breaker.allow t.cl_breaker) then
      (* The breaker is open: fail fast with the errno that tripped it
         rather than burn a full timeout on a known-bad server.  The
         backoff between attempts still runs, so a long-enough retry
         schedule reaches the half-open probe. *)
      retry (Breaker.last_errno t.cl_breaker)
    else
      match
        Network.call t.cl_net ~src:t.cl_src ~timeout_ns:t.cl_policy.timeout_ns
          ~addr:t.cl_addr (payload ())
      with
      | Error e when transient e ->
        Breaker.failure ~errno:e t.cl_breaker;
        retry e
      | Error e -> Error e
      | Ok text ->
        (* Any reply — even an error verdict or a damaged frame — proves
           the server is alive and answering. *)
        Breaker.success t.cl_breaker;
        (match Protocol.decode_response text with
         | Error _ ->
           (* Damaged frame (truncation/corruption caught by the protocol
              checksum): indistinguishable from a lost reply, so retry. *)
           retry Errno.EIO
         | Ok (Protocol.R_error (Errno.ESTALE, _)) when not reauthed ->
           (match reauth t with
            | Ok () -> go attempt true
            | Error e -> Error e)
         | Ok (Protocol.R_error (Errno.EAGAIN, msg)) ->
           retry ?hint:(Protocol.retry_after_of_message msg) ~shed:true
             Errno.EAGAIN
         | Ok (Protocol.R_error (e, _)) when transient e -> retry e
         | Ok (Protocol.R_error (e, _)) -> Error e
         | Ok r -> Ok r)
  in
  let r = go 1 false in
  (* Any mutation attempt through this client invalidates its leases —
     even a failed one may have landed server-side (lost reply). *)
  if not (Protocol.idempotent op) then flush_leases t;
  r

(* {1 Prepared exchanges}

   The raw halves of one idempotent exchange, for callers that drive
   the network themselves (benchmarks and tests that issue many
   prepared requests concurrently via [Network.submit]).
   Idempotent operations carry no request ID, so preparing is pure:
   the same operation prepares to the same bytes, and sending it twice
   is harmless by construction. *)

let prepare t op =
  Protocol.encode_request (Protocol.Op { token = t.cl_token; req_id = ""; op })

let interpret text =
  match Protocol.decode_response text with
  | Error _ ->
    (* Damaged frame: indistinguishable from a lost reply. *)
    Error Errno.EIO
  | Ok (Protocol.R_error (e, _)) -> Error e
  | Ok r -> Ok r

let expect_ok = function
  | Ok Protocol.R_ok -> Ok ()
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let mkdir t path = expect_ok (call t (Protocol.Mkdir path))
let rmdir t path = expect_ok (call t (Protocol.Rmdir path))
let unlink t path = expect_ok (call t (Protocol.Unlink path))

let put t ~path ~data = expect_ok (call t (Protocol.Put { path; data }))

let get t path =
  match call t (Protocol.Get path) with
  | Ok (Protocol.R_data data) -> Ok data
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let stat t path =
  match lease_get t ("stat:" ^ path) with
  | Some (Protocol.R_stat st) -> Ok st
  | Some _ | None ->
    (match call t (Protocol.Stat path) with
     | Ok (Protocol.R_stat st) ->
       lease_put t ("stat:" ^ path) (Protocol.R_stat st);
       Ok st
     | Ok _ -> Error Errno.EINVAL
     | Error e -> Error e)

let readdir t path =
  match call t (Protocol.Readdir path) with
  | Ok (Protocol.R_names names) -> Ok names
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let getacl t path =
  match lease_get t ("acl:" ^ path) with
  | Some (Protocol.R_str s) -> Ok s
  | Some _ | None ->
    (match call t (Protocol.Getacl path) with
     | Ok (Protocol.R_str s) ->
       lease_put t ("acl:" ^ path) (Protocol.R_str s);
       Ok s
     | Ok _ -> Error Errno.EINVAL
     | Error e -> Error e)

let setacl t ~path ~entry = expect_ok (call t (Protocol.Setacl { path; entry }))

let rename t ~src ~dst = expect_ok (call t (Protocol.Rename { src; dst }))

let exec t ?cwd ~path ~args () =
  let cwd = match cwd with Some c -> c | None -> Path.dirname path in
  match call t (Protocol.Exec { path; args; cwd }) with
  | Ok (Protocol.R_exit code) -> Ok code
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let checksum t path =
  match call t (Protocol.Checksum path) with
  | Ok (Protocol.R_str s) -> Ok s
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let exec_delegated t ~chain ?cwd ~path ~args () =
  let cwd = match cwd with Some c -> c | None -> Path.dirname path in
  match
    call t
      (Protocol.Delegated { chain; op = Protocol.Exec { path; args; cwd } })
  with
  | Ok (Protocol.R_exit code) -> Ok code
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let get_delegated t ~chain path =
  match call t (Protocol.Delegated { chain; op = Protocol.Get path }) with
  | Ok (Protocol.R_data data) -> Ok data
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let epoch_of_r_str = function
  | Ok (Protocol.R_str s) ->
    (match int_of_string_opt s with
     | Some e -> Ok e
     | None -> Error Errno.EINVAL)
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let revoke t who = epoch_of_r_str (call t (Protocol.Revoke who))
let delegation_epoch t who = epoch_of_r_str (call t (Protocol.Epoch who))

let batch t ops =
  match ops with
  | [] -> Ok []
  | _ ->
    if List.exists (function Protocol.Batch _ -> true | _ -> false) ops then
      Error Errno.EINVAL
    else
      (match call t (Protocol.Batch ops) with
       | Ok (Protocol.R_batch rs) when List.length rs = List.length ops -> Ok rs
       | Ok _ -> Error Errno.EINVAL
       | Error e -> Error e)

let whoami t =
  match call t Protocol.Whoami with
  | Ok (Protocol.R_str s) -> Ok s
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let stat_of_wire (ws : Protocol.wire_stat) =
  {
    Fs.st_ino = 0;
    st_kind =
      (match ws.Protocol.ws_kind with
       | "dir" -> Inode.Directory
       | "link" -> Inode.Symlink
       | _ -> Inode.Regular);
    st_mode = 0o644;
    st_uid = 0;
    st_nlink = 1;
    st_size = ws.Protocol.ws_size;
    st_mtime = ws.Protocol.ws_mtime;
    st_ctime = ws.Protocol.ws_mtime;
  }

let to_remote t =
  {
    Idbox.Remote.r_describe = Printf.sprintf "chirp server %s as %s" t.cl_addr t.cl_principal;
    r_stat = (fun p -> Result.map stat_of_wire (stat t p));
    r_read = (fun p -> get t p);
    r_write = (fun p data -> put t ~path:p ~data);
    r_mkdir = (fun p -> mkdir t p);
    r_unlink = (fun p -> unlink t p);
    r_rmdir = (fun p -> rmdir t p);
    r_readdir = (fun p -> readdir t p);
    r_rename = (fun src dst -> rename t ~src ~dst);
    r_getacl = (fun p -> getacl t p);
    r_setacl = (fun p entry -> setacl t ~path:p ~entry);
  }
