(* A lightweight metrics registry: monotonic counters and log-scale
   latency histograms, designed so the hot path (incr / observe) does
   no allocation — a fixed bucket array indexed by bit shifts, mutable
   int fields, no closures.  The only allocating operations are name
   lookup (get-or-create, amortized by callers that hold on to the
   handle) and the JSON render. *)

(* --- counters -------------------------------------------------------- *)

type counter = {
  c_name : string;
  mutable c_value : int;
}

let counter_name c = c.c_name
let counter_value c = c.c_value

(* Saturating add: a counter that has seen max_int events stays pinned
   there rather than wrapping negative and corrupting rates. *)
let add c n =
  if n > 0 then
    c.c_value <- (if c.c_value > max_int - n then max_int else c.c_value + n)

let incr c = add c 1

(* --- histograms ------------------------------------------------------ *)

(* Bucket [0] holds values <= 1ns; bucket [i>=1] holds [2^i, 2^(i+1)).
   63 buckets cover the whole non-negative int range. *)
let bucket_count = 63

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

let histogram_name h = h.h_name
let count h = h.h_count
let sum_ns h = h.h_sum
let max_ns h = h.h_max

let bucket_index v =
  let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
  go v 0

let observe h v =
  let v = if v < 0 then 0 else v in
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- (if h.h_sum > max_int - v then max_int else h.h_sum + v);
  if v > h.h_max then h.h_max <- v

(* Clamp in int64 space before converting: a duration beyond the int
   range must saturate into the top bucket, not wrap negative and land
   silently in bucket 0. *)
let observe_ns h ns =
  let v =
    if Int64.compare ns 0L < 0 then 0
    else if Int64.compare ns (Int64.of_int max_int) > 0 then max_int
    else Int64.to_int ns
  in
  observe h v

(* The representative value of bucket [i]: its geometric centre.  With
   log-scale buckets a percentile is only ever bucket-resolution
   accurate; the centre keeps the error symmetric. *)
let bucket_value i = if i = 0 then 1.0 else float_of_int (1 lsl i) *. 1.5

let percentile h p =
  if h.h_count = 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
      if r < 1 then 1 else r
    in
    let rec go i cum =
      if i >= bucket_count then float_of_int h.h_max
      else
        let cum = cum + h.h_buckets.(i) in
        if cum >= rank then bucket_value i else go (i + 1) cum
    in
    go 0 0
  end

let mean_ns h =
  if h.h_count = 0 then 0.0
  else float_of_int h.h_sum /. float_of_int h.h_count

(* --- registry -------------------------------------------------------- *)

type t = {
  m_counters : (string, counter) Hashtbl.t;
  m_histograms : (string, histogram) Hashtbl.t;
  mutable m_lookups : int;
      (* Every by-name registry probe.  Hot paths are expected to hold
         handles; tests pin this to zero across a warm check. *)
}

let create () =
  { m_counters = Hashtbl.create 64; m_histograms = Hashtbl.create 64;
    m_lookups = 0 }

let lookups t = t.m_lookups

let counter t name =
  t.m_lookups <- t.m_lookups + 1;
  match Hashtbl.find_opt t.m_counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.m_counters name c;
    c

let histogram t name =
  t.m_lookups <- t.m_lookups + 1;
  match Hashtbl.find_opt t.m_histograms name with
  | Some h -> h
  | None ->
    let h =
      { h_name = name; h_buckets = Array.make bucket_count 0; h_count = 0;
        h_sum = 0; h_max = 0 }
    in
    Hashtbl.replace t.m_histograms name h;
    h

type handles = {
  hs_registry : t;
  hs_prefix : string;
  hs_table : (string, counter) Hashtbl.t;
}

let handles ?(prefix = "") t =
  { hs_registry = t; hs_prefix = prefix; hs_table = Hashtbl.create 16 }

let handle hs name =
  match Hashtbl.find hs.hs_table name with
  | c -> c
  | exception Not_found ->
    let c = counter hs.hs_registry (hs.hs_prefix ^ name) in
    Hashtbl.replace hs.hs_table name c;
    c

let find_counter t name =
  t.m_lookups <- t.m_lookups + 1;
  Hashtbl.find_opt t.m_counters name

let find_histogram t name =
  t.m_lookups <- t.m_lookups + 1;
  Hashtbl.find_opt t.m_histograms name

let counter_value_of t name =
  match find_counter t name with Some c -> c.c_value | None -> 0

let by_name key_of tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> String.compare (key_of a) (key_of b))

let counters t = by_name counter_name t.m_counters
let histograms t = by_name histogram_name t.m_histograms

let reset t =
  Hashtbl.reset t.m_counters;
  Hashtbl.reset t.m_histograms

(* --- JSON ------------------------------------------------------------ *)

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let histogram_json h =
  Printf.sprintf
    "{\"count\":%d,\"sum_ns\":%d,\"max_ns\":%d,\"mean_ns\":%.1f,\"p50_ns\":%.1f,\"p95_ns\":%.1f,\"p99_ns\":%.1f}"
    h.h_count h.h_sum h.h_max (mean_ns h) (percentile h 50.0)
    (percentile h 95.0) (percentile h 99.0)

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%d" (escape_json c.c_name) c.c_value))
    (counters t);
  Buffer.add_string buf "},\"histograms\":{";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s" (escape_json h.h_name) (histogram_json h)))
    (histograms t);
  Buffer.add_string buf "}}";
  Buffer.contents buf
