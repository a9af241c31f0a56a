(* Deterministic fault injection: a seeded splitmix64 stream plus a
   declarative plan of probabilistic and scheduled faults. *)

type rng = { mutable state : int64 }

let rng seed = { state = seed }

(* splitmix64: tiny, well-distributed, and identical on every platform
   (all arithmetic is Int64, no host-word-size dependence). *)
let bits r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform r =
  (* 53 high bits -> [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (bits r) 11) /. 9007199254740992.0

let int_below r n =
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (bits r) 1) (Int64.of_int n))

let chance r p = if p <= 0. then false else if p >= 1. then true else uniform r < p

type profile = {
  drop : float;
  reset : float;
  corrupt : float;
  truncate : float;
  jitter : float;
  max_jitter_ns : int64;
}

let calm =
  { drop = 0.; reset = 0.; corrupt = 0.; truncate = 0.; jitter = 0.;
    max_jitter_ns = 0L }

let profile ?(drop = 0.) ?(reset = 0.) ?(corrupt = 0.) ?(truncate = 0.)
    ?(jitter = 0.) ?(max_jitter_ns = 0L) () =
  { drop; reset; corrupt; truncate; jitter; max_jitter_ns }

(* A wide-area link: high jitter with a long tail and a little loss.
   Intra-region profiles stay calm; attaching this per-endpoint to the
   remote region's addresses models the WAN from the local vantage. *)
let wan ?(drop = 0.01) ?(reset = 0.) ?(jitter = 0.9)
    ?(max_jitter_ns = 30_000_000L) () =
  profile ~drop ~reset ~jitter ~max_jitter_ns ()

(* Crash damage for a simulated stable-storage device (the Chirp WAL):
   the same seeded-stream discipline as the network profiles, but the
   faults model what a power cut does to a disk, not what a router does
   to a packet.  Damage is confined to bytes not yet fsync'd — that is
   the contract a WAL buys — plus an optional torn fragment of a write
   that was in flight when the power died. *)
type storage_profile = {
  torn_write : float;
      (** Probability a crash leaves a torn tail: either the last
          unsynced record cut mid-record, or (when everything was
          synced) a partial fragment of an in-flight record appended
          after the durable prefix. *)
  lose_tail : float;
      (** Probability the unsynced suffix loses whole records from the
          end (the page cache never reached the platter). *)
  flip : float;
      (** Probability of flipped bytes somewhere in the unsynced
          suffix (a sector written during the power dip). *)
}

let calm_storage = { torn_write = 0.; lose_tail = 0.; flip = 0. }

let storage_profile ?(torn_write = 0.) ?(lose_tail = 0.) ?(flip = 0.) () =
  { torn_write; lose_tail; flip }

type window = {
  from_ns : int64;
  until_ns : int64;
  between : string * string;
}

let window ~from_ns ~until_ns ~between = { from_ns; until_ns; between }

type plan = {
  seed : int64;
  default_profile : profile;
  per_endpoint : (string * profile) list;
  partitions : window list;
}

let plan ?(seed = 0L) ?(default_profile = calm) ?(per_endpoint = [])
    ?(partitions = []) () =
  { seed; default_profile; per_endpoint; partitions }

let profile_for p addr =
  match List.assoc_opt addr p.per_endpoint with
  | Some prof -> prof
  | None -> p.default_profile

let host_of addr =
  match String.index_opt addr ':' with
  | Some i -> String.sub addr 0 i
  | None -> addr

let partitioned p ~now ~src ~dst =
  let hs = host_of src and hd = host_of dst in
  List.exists
    (fun w ->
      now >= w.from_ns && now < w.until_ns
      &&
      let a, b = w.between in
      (String.equal hs a && String.equal hd b)
      || (String.equal hs b && String.equal hd a))
    p.partitions

(* --- corruption injectors ------------------------------------------- *)

let flip_bytes r s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let flips = 1 + int_below r 4 in
    for _ = 1 to flips do
      let i = int_below r n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + int_below r 255)))
    done;
    Bytes.to_string b
  end

let truncate_string r s =
  let n = String.length s in
  if n = 0 then s else String.sub s 0 (int_below r n)

let duplicate_slice r s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let i = int_below r n in
    let len = 1 + int_below r (n - i) in
    let slice = String.sub s i len in
    String.sub s 0 (i + len) ^ slice ^ String.sub s (i + len) (n - i - len)
  end

let delete_slice r s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let i = int_below r n in
    let len = 1 + int_below r (n - i) in
    String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  end

let insert_junk r s =
  let n = String.length s in
  let i = if n = 0 then 0 else int_below r (n + 1) in
  let junk = String.init (1 + int_below r 8) (fun _ -> Char.chr (int_below r 256)) in
  String.sub s 0 i ^ junk ^ String.sub s i (n - i)

let mangle r s =
  match int_below r 5 with
  | 0 -> flip_bytes r s
  | 1 -> truncate_string r s
  | 2 -> duplicate_slice r s
  | 3 -> delete_slice r s
  | _ -> insert_junk r s
