module Fault = Idbox_net.Fault

(* Record framing: magic, payload length in hex (fixed width so the
   header parses without a delimiter scan), md5 of the payload, payload. *)
let magic = "IDBX"
let len_width = 8
let sum_width = 32
let header_len = String.length magic + len_width + sum_width

type t = {
  dv_log : Buffer.t;  (* the byte image of the record log *)
  mutable dv_synced : int;  (* bytes covered by the last sync *)
  mutable dv_ckpt : string option;
  mutable dv_records : int;  (* records in dv_log *)
  mutable dv_synced_records : int;
  mutable dv_appends : int;  (* lifetime appends, across checkpoints *)
  dv_rng : Fault.rng;
  dv_profile : Fault.storage_profile;
}

let create ?(seed = 0L) ?(profile = Fault.calm_storage) () =
  {
    dv_log = Buffer.create 1024;
    dv_synced = 0;
    dv_ckpt = None;
    dv_records = 0;
    dv_synced_records = 0;
    dv_appends = 0;
    dv_rng = Fault.rng seed;
    dv_profile = profile;
  }

(* Appends write the frame straight onto the log, so a record costs one
   copy of its payload however long the log has grown. *)
let add_frame buf payload =
  Printf.bprintf buf "%s%08x%s" magic (String.length payload)
    (Digest.to_hex (Digest.string payload));
  Buffer.add_string buf payload

let append t payload =
  add_frame t.dv_log payload;
  t.dv_records <- t.dv_records + 1;
  t.dv_appends <- t.dv_appends + 1

let sync t =
  t.dv_synced <- Buffer.length t.dv_log;
  t.dv_synced_records <- t.dv_records

let records t = t.dv_records
let synced_records t = t.dv_synced_records
let log_bytes t = Buffer.length t.dv_log
let appends t = t.dv_appends

let checkpoint t blob =
  t.dv_ckpt <- Some blob;
  Buffer.clear t.dv_log;
  t.dv_synced <- 0;
  t.dv_records <- 0;
  t.dv_synced_records <- 0

let checkpoint_image t = t.dv_ckpt

(* The record boundaries within [s] starting at [from] — used to cut
   the unsynced suffix at a boundary (lost records) or inside a record
   (a torn write).  Boundaries are parsed from the framing alone; this
   runs on the pre-damage image, where framing is intact. *)
let boundaries s from =
  let n = String.length s in
  let rec go pos acc =
    if pos + header_len > n then List.rev acc
    else
      match int_of_string_opt ("0x" ^ String.sub s (pos + 4) len_width) with
      | None -> List.rev acc
      | Some len ->
        let next = pos + header_len + len in
        if next > n then List.rev acc else go next (next :: acc)
  in
  go from []

let crash t =
  let p = t.dv_profile in
  let log = t.dv_log in
  let n = Buffer.length log in
  if n > t.dv_synced then begin
    (* Unsynced suffix: lose whole records from the end... *)
    if Fault.chance t.dv_rng p.Fault.lose_tail then begin
      let cuts = t.dv_synced :: boundaries (Buffer.contents log) t.dv_synced in
      Buffer.truncate log
        (List.nth cuts (Fault.int_below t.dv_rng (List.length cuts)))
    end;
    (* ...tear the last surviving unsynced record mid-write... *)
    let n = Buffer.length log in
    if n > t.dv_synced && Fault.chance t.dv_rng p.Fault.torn_write then begin
      let cut =
        t.dv_synced + 1 + Fault.int_below t.dv_rng (n - t.dv_synced)
      in
      Buffer.truncate log (min cut n)
    end;
    (* ...and flip bytes in whatever unsynced bytes remain. *)
    let n = Buffer.length log in
    if n > t.dv_synced && Fault.chance t.dv_rng p.Fault.flip then begin
      let suffix = Buffer.sub log t.dv_synced (n - t.dv_synced) in
      Buffer.truncate log t.dv_synced;
      Buffer.add_string log (Fault.flip_bytes t.dv_rng suffix)
    end
  end
  else if Fault.chance t.dv_rng p.Fault.torn_write then begin
    (* Fully synced log: the crash can still have interrupted a write
       that was in flight (never acknowledged) — a torn fragment of a
       phantom next record lands after the durable prefix. *)
    let junk_len = 1 + Fault.int_below t.dv_rng 48 in
    let junk =
      String.init junk_len (fun _ ->
          Char.chr (Int64.to_int (Int64.logand (Fault.bits t.dv_rng) 0xffL)))
    in
    Printf.bprintf t.dv_log "%s%08x%s" magic (junk_len + 64) junk
  end;
  (* Whatever survived is what is on the platter now. *)
  t.dv_synced <- Buffer.length t.dv_log

(* {1 Segment export / import}

   Geo replication ships a contiguous run of records as one blob: the
   concatenation of their IDBX frames, each carrying its own md5.  The
   importer is strict where {!recover} is lenient — a WAL recovery
   salvages the valid prefix of a crash-damaged disk, but a shipped
   segment claiming [n] records must parse as exactly [n] intact
   frames or be rejected whole, so the shipper re-sends it. *)

let frame_segment payloads =
  let buf =
    Buffer.create
      (List.fold_left (fun n p -> n + header_len + String.length p) 0 payloads)
  in
  List.iter (add_frame buf) payloads;
  Buffer.contents buf

let parse_segment s =
  let n = String.length s in
  let rec go pos acc =
    if pos = n then Ok (List.rev acc)
    else if pos + header_len > n then Error `Damaged
    else if not (String.equal (String.sub s pos 4) magic) then Error `Damaged
    else
      match int_of_string_opt ("0x" ^ String.sub s (pos + 4) len_width) with
      | None -> Error `Damaged
      | Some len ->
        let body = pos + header_len in
        if body + len > n then Error `Damaged
        else
          let sum = String.sub s (pos + 4 + len_width) sum_width in
          let payload = String.sub s body len in
          if String.equal sum (Digest.to_hex (Digest.string payload)) then
            go (body + len) (payload :: acc)
          else Error `Damaged
  in
  go 0 []

type recovery = {
  rc_checkpoint : string option;
  rc_records : string list;
  rc_torn_records : int;
  rc_torn_bytes : int;
}

let recover t =
  let s = Buffer.contents t.dv_log in
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then (pos, List.rev acc)
    else if pos + header_len > n then (pos, List.rev acc)
    else if not (String.equal (String.sub s pos 4) magic) then
      (pos, List.rev acc)
    else
      match int_of_string_opt ("0x" ^ String.sub s (pos + 4) len_width) with
      | None -> (pos, List.rev acc)
      | Some len ->
        let body = pos + header_len in
        if body + len > n then (pos, List.rev acc)
        else
          let sum = String.sub s (pos + 4 + len_width) sum_width in
          let payload = String.sub s body len in
          if String.equal sum (Digest.to_hex (Digest.string payload)) then
            go (body + len) (payload :: acc)
          else (pos, List.rev acc)
  in
  let valid_end, payloads = go 0 [] in
  let torn_bytes = n - valid_end in
  (* A torn tail is one interrupted write; count it as one discarded
     record (there is no framing left to count more precisely). *)
  let torn_records = if torn_bytes > 0 then 1 else 0 in
  Buffer.truncate t.dv_log valid_end;
  t.dv_synced <- valid_end;
  t.dv_records <- List.length payloads;
  t.dv_synced_records <- t.dv_records;
  {
    rc_checkpoint = t.dv_ckpt;
    rc_records = payloads;
    rc_torn_records = torn_records;
    rc_torn_bytes = torn_bytes;
  }
