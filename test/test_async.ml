(* Event-driven dispatch: the sysent table's shape and
   single-completion sysmsg discipline; seeded equivalence between three
   ways of driving the one Chirp admission path — a listener with no
   flush window, a listener with a 50 us window, and direct
   [Server.handle] dispatch (byte-identical requests and responses,
   identical WAL modulo done-record timestamps, identical chirp counters
   modulo async bookkeeping and group-commit syncs);
   and the session-slot churn regression (a session expiring or
   crashing mid-batch releases its slot exactly once). *)

module Clock = Idbox_kernel.Clock
module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Metrics = Idbox_kernel.Metrics
module Sysent = Idbox_kernel.Sysent
module Syscall = Idbox_kernel.Syscall
module Network = Idbox_net.Network
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Protocol = Idbox_chirp.Protocol
module Wal = Idbox_chirp.Wal
module Wire = Idbox_chirp.Wire
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

(* CI reruns the equivalence sweep under extra seeds via the same knob
   the chaos suite honours. *)
let seeds =
  let base = [ 1; 7; 42; 2005; 90210 ] in
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try (int_of_string s mod 1_000_000) :: base with _ -> base)
  | None -> base

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let ok_s ctx = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" ctx m

(* --- the sysent table ------------------------------------------------ *)

let sysent_table_shape () =
  let k = Kernel.create () in
  let rows = Kernel.sysent_summary k in
  Alcotest.(check int) "one entry per syscall" Syscall.count
    (List.length rows);
  List.iteri
    (fun i (number, name, narg, has_enforce) ->
      Alcotest.(check int) (name ^ " numbered by its slot") i number;
      let proto =
        List.find (fun p -> Syscall.number p = number) Syscall.prototypes
      in
      Alcotest.(check string) "prototype name" (Syscall.name proto) name;
      Alcotest.(check int)
        (name ^ " carries its register arity")
        (Syscall.register_args proto)
        narg;
      (* Every call that traps carries an enforcement pre-check; only
         compute (pure CPU burn, no kernel object touched) has none. *)
      Alcotest.(check bool)
        (name ^ " enforce hook")
        (not (String.equal name "compute"))
        has_enforce)
    rows

let sysent_rejects_misnumbered () =
  let make i =
    Sysent.entry
      ~number:(if i = 1 then 5 else i)
      ~name:"x" ~narg:0
      (fun _ctx _req -> 0)
  in
  match Sysent.table ~count:2 make with
  | _ -> Alcotest.fail "misnumbered sysent accepted"
  | exception Invalid_argument _ -> ()

let sysmsg_completes_once () =
  let e = Sysent.entry ~number:0 ~name:"open" ~narg:2 (fun _ctx _req -> 7) in
  let msg = Sysent.msg ~pid:1 ~at:0L e in
  Alcotest.(check bool) "fresh message pending" true (Sysent.is_pending msg);
  Alcotest.(check bool) "first completion wins" true (Sysent.complete msg 7);
  Alcotest.(check bool) "late wakeup refused" false (Sysent.complete msg 9);
  Alcotest.(check bool) "no longer pending" false (Sysent.is_pending msg);
  Alcotest.(check (option int)) "outcome is the first" (Some 7)
    (Sysent.outcome msg)

(* --- a single-server world ------------------------------------------ *)

type world = {
  w_clock : Clock.t;
  w_kernel : Kernel.t;
  w_net : Network.t;
  w_server : Server.t;
  w_wal : Wal.t;
  w_ca : Ca.t;
}

let addr = "alpha.grid.edu:9094"

let make_world ?max_sessions ?session_idle_ns ?flush_interval_ns () =
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  let kernel = Kernel.create ~clock () in
  let owner =
    match Account.add (Kernel.accounts kernel) "chirpuser" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"UnivNowhere CA" in
  let root_acl =
    Acl.of_entries
      [
        Entry.make ~pattern:"globus:/O=UnivNowhere/*"
          (Rights.of_string_exn "rwlaxd");
      ]
  in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let wal = Wal.create () in
  let server =
    ok "server"
      (Server.create ~kernel ~net ~addr ~owner_uid:owner.Account.uid
         ~export:"/tmp/export" ~acceptor ~root_acl ~wal ?max_sessions
         ?session_idle_ns ?flush_interval_ns ())
  in
  {
    w_clock = clock;
    w_kernel = kernel;
    w_net = net;
    w_server = server;
    w_wal = wal;
    w_ca = ca;
  }

(* The three engines.  [Window0] is the default server: a parked
   mutation is flushed, a batch of one, before its delivery returns.
   [Window50us] holds mutations for a 50 us group-commit window.
   [Direct] re-registers the listener around [Server.handle] — the way
   the benchmark wraps servers — on a server that also has a 50 us
   window, so each call must flush its own parked request before it
   returns. *)
let engines = [ `Window0; `Window50us; `Direct ]

let engine_name = function
  | `Window0 -> "window 0"
  | `Window50us -> "window 50us"
  | `Direct -> "direct handle"

let make_engine = function
  | `Window0 -> make_world ()
  | `Window50us -> make_world ~flush_interval_ns:50_000L ()
  | `Direct ->
    let w = make_world ~flush_interval_ns:50_000L () in
    Network.listen w.w_net ~addr (Server.handle w.w_server);
    w

let connect w =
  let cert = Ca.issue w.w_ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  ok_s "connect"
    (Client.connect w.w_net ~addr ~credentials:[ Credential.Gsi cert ])

(* --- seeded three-engine equivalence --------------------------------- *)

(* A seeded random op stream over a small path population: mutations,
   reads, errors (missing files, renames over nothing) — everything the
   engines must answer identically.  Stat is excluded: its mtime is
   admission-time-dependent and a flush window answers a batch's worth
   of mutations later than an immediate flush. *)
let op_paths = [| "/a"; "/b"; "/d/x"; "/d/y"; "/d/z" |]

let gen_ops st n =
  List.init n (fun _ ->
      let p = op_paths.(Random.State.int st (Array.length op_paths)) in
      let q = op_paths.(Random.State.int st (Array.length op_paths)) in
      match Random.State.int st 8 with
      | 0 -> `Put (p, Printf.sprintf "data-%d" (Random.State.int st 1000))
      | 1 -> `Get p
      | 2 -> `Readdir "/d"
      | 3 -> `Unlink p
      | 4 -> `Rename (p, q)
      | 5 -> `Checksum p
      | 6 -> `Whoami
      | _ -> `Getacl "/")

let show to_s = function
  | Ok v -> "ok:" ^ to_s v
  | Error e -> Errno.to_string e

let apply c = function
  | `Put (p, d) -> show (fun () -> "") (Client.put c ~path:p ~data:d)
  | `Get p -> show Fun.id (Client.get c p)
  | `Readdir p -> show (String.concat ",") (Client.readdir c p)
  | `Unlink p -> show (fun () -> "") (Client.unlink c p)
  | `Rename (src, dst) -> show (fun () -> "") (Client.rename c ~src ~dst)
  | `Checksum p -> show Fun.id (Client.checksum c p)
  | `Whoami -> show Fun.id (Client.whoami c)
  | `Getacl p -> show Fun.id (Client.getacl c p)

(* The WAL modulo done-record admission timestamps: a flush window
   answers later than it admits, so absolute times drift between the
   worlds, but every op record and every done record's identity and
   response bytes must match exactly, in the same order. *)
let normalized_wal wal =
  let rc = Wal.recover wal in
  List.map
    (fun r ->
      match Wire.decode r with
      | Ok [ "done"; rid; _ts; resp ] -> Wire.encode [ "done"; rid; "-"; resp ]
      | _ -> r)
    rc.Wal.rc_records

let has_prefix p s =
  String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p

(* Every chirp counter except the async bookkeeping (batch counts
   depend on the window) and the WAL sync count (group commit exists to
   change it). *)
let chirp_counters kernel =
  Metrics.counters (Kernel.metrics kernel)
  |> List.filter_map (fun c ->
         let n = Metrics.counter_name c in
         if
           has_prefix "chirp." n
           && (not (has_prefix "chirp.async." n))
           && not (has_prefix "chirp.wal.sync" n)
         then Some (n, Metrics.counter_value c)
         else None)

let equivalence () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let ops = gen_ops st 120 in
      let ws = List.map (fun e -> (engine_name e, make_engine e)) engines in
      let cs = List.map (fun (name, w) -> (name, connect w)) ws in
      List.iter
        (fun (name, c) -> ok ("mkdir " ^ name) (Client.mkdir c "/d"))
        cs;
      (* Each engine's answer must equal the first engine's. *)
      let agree what show results =
        match results with
        | [] -> ()
        | (name0, r0) :: rest ->
          List.iter
            (fun (name, r) ->
              if r <> r0 then
                Alcotest.failf "seed %d %s: %s=%s %s=%s" seed what name0
                  (show r0) name (show r))
            rest
      in
      List.iteri
        (fun i op ->
          agree (Printf.sprintf "step %d" i) (Printf.sprintf "%S")
            (List.map (fun (name, c) -> (name, apply c op)) cs))
        ops;
      (* A mutation batch parks and executes as one unit; its member
         results must match member-by-member across engines. *)
      let batch =
        [
          Protocol.Put { path = "/bz"; data = "z" };
          Protocol.Get "/bz";
          Protocol.Unlink "/bz";
        ]
      in
      agree "batch" (fun _ -> "<batch results>")
        (List.map (fun (name, c) -> (name, Client.batch c batch)) cs);
      List.iter
        (fun (name, w) ->
          Network.pump w.w_net;
          Alcotest.(check int) (name ^ ": nothing left parked") 0
            (Server.parked_ops w.w_server))
        ws;
      agree "WAL modulo timestamps" (String.concat "\n")
        (List.map (fun (name, w) -> (name, normalized_wal w.w_wal)) ws);
      agree "chirp counters"
        (fun l ->
          String.concat ","
            (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) l))
        (List.map (fun (name, w) -> (name, chirp_counters w.w_kernel)) ws))
    seeds

(* The wire bytes themselves: identical prepared requests must draw
   byte-identical responses from every engine (tokens are digests of
   address, counter and principal — every world negotiates the same
   ones). *)
let raw_byte_equivalence () =
  let ws = List.map make_engine engines in
  let cs = List.map connect ws in
  let exchange w payload =
    match Network.call w.w_net ~addr payload with
    | Ok r -> r
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  List.iter
    (fun op ->
      match List.map2 (fun w c -> (w, Client.prepare c op)) ws cs with
      | [] -> ()
      | (w0, p0) :: rest ->
        let r0 = exchange w0 p0 in
        List.iter
          (fun (w, p) ->
            Alcotest.(check string) "request bytes" p0 p;
            Alcotest.(check string) "response bytes" r0 (exchange w p))
          rest)
    [
      Protocol.Mkdir "/d";
      Protocol.Put { path = "/d/f"; data = "hello" };
      Protocol.Get "/d/f";
      Protocol.Readdir "/d";
      Protocol.Checksum "/d/f";
      Protocol.Whoami;
      Protocol.Get "/missing";
      Protocol.Unlink "/d/f";
    ]

(* --- session-slot accounting under churn (the regression) ------------ *)

let counter_of w name = Metrics.counter_value_of (Kernel.metrics w.w_kernel) name

let step_until w cond =
  let rec go budget =
    if cond () then ()
    else if budget = 0 || not (Network.step w.w_net) then
      Alcotest.fail "event queue drained before condition held"
    else go (budget - 1)
  in
  go 10_000

let slot_churn () =
  (* Two slots, a 1 ms idle window, and a flush tick far enough out
     that sessions can expire while their mutation is still parked. *)
  let w =
    make_world ~max_sessions:2 ~session_idle_ns:1_000_000L
      ~flush_interval_ns:50_000_000L ()
  in
  let a = connect w in
  Alcotest.(check int) "one live session" 1 (Server.session_count w.w_server);
  (* Park a mutation: deliver it, but run nothing past the delivery. *)
  let tok =
    Network.submit w.w_net ~addr
      (Client.prepare a (Protocol.Put { path = "/late"; data = "survives" }))
  in
  step_until w (fun () -> Server.parked_ops w.w_server = 1);
  (* Expire the session mid-park: the next auth sweeps it, frees the
     slot exactly once, and the parked op must still execute and answer
     under the principal it was admitted with. *)
  Clock.advance_to w.w_clock (Int64.add (Clock.now w.w_clock) 2_000_000L);
  let c = connect w in
  Alcotest.(check bool) "expiry swept" true (counter_of w "chirp.session.expired" >= 1);
  Alcotest.(check int) "slot released exactly once" 1
    (Server.session_count w.w_server);
  Network.pump w.w_net;
  Alcotest.(check int) "batch flushed" 0 (Server.parked_ops w.w_server);
  (match Network.poll tok with
  | Some (Ok text) -> (
    match Client.interpret text with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "parked op failed after expiry: %s" (Errno.to_string e))
  | Some (Error e) ->
    Alcotest.failf "parked op lost: %s" (Errno.to_string e)
  | None -> Alcotest.fail "parked op never completed");
  Alcotest.(check string) "orphaned mutation is durable" "survives"
    (ok "get" (Client.get c "/late"));
  (* Crash mid-park: the parked op is volatile (never acknowledged),
     the stale flush tick is a no-op, and the table resets cleanly. *)
  let tok2 =
    Network.submit w.w_net ~addr
      (Client.prepare c (Protocol.Put { path = "/lost"; data = "gone" }))
  in
  step_until w (fun () -> Server.parked_ops w.w_server = 1);
  Server.crash w.w_server;
  Alcotest.(check int) "crash clears the park" 0 (Server.parked_ops w.w_server);
  Network.pump w.w_net;
  (match Network.poll tok2 with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "crashed server acknowledged a parked op"
  | None -> Alcotest.fail "timeout never fired");
  Server.restart w.w_server;
  (* Churn: every reconnect sweeps the expired table; the cap holds and
     fresh auths always find a slot. *)
  for _ = 1 to 10 do
    Clock.advance_to w.w_clock (Int64.add (Clock.now w.w_clock) 2_000_000L);
    let d = connect w in
    Alcotest.(check bool) "cap holds" true (Server.session_count w.w_server <= 2);
    ignore (ok "whoami" (Client.whoami d))
  done;
  Alcotest.(check string) "recovery kept the durable put" "survives"
    (ok "get after restart" (Client.get (connect w) "/late"))

let suite =
  [
    Alcotest.test_case "sysent table shape" `Quick sysent_table_shape;
    Alcotest.test_case "sysent rejects misnumbered entries" `Quick
      sysent_rejects_misnumbered;
    Alcotest.test_case "sysmsg completes exactly once" `Quick
      sysmsg_completes_once;
    Alcotest.test_case "sync/async equivalence (5 seeds)" `Quick equivalence;
    Alcotest.test_case "sync/async byte-identical wire exchanges" `Quick
      raw_byte_equivalence;
    Alcotest.test_case "session slots survive churn" `Quick slot_churn;
  ]
