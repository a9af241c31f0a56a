(** A lightweight metrics registry: monotonic counters and log-scale
    latency histograms with cheap percentile estimates.

    The hot path ({!incr}, {!add}, {!observe}) allocates nothing — a
    handle obtained once from {!counter} or {!histogram} updates
    mutable int fields and a fixed bucket array.  Counters saturate at
    [max_int] instead of wrapping.  Histograms bucket values by
    powers of two, so percentiles are bucket-resolution estimates:
    bucket 0 holds values [<= 1]; bucket [i >= 1] holds
    [[2^i, 2^(i+1))], reported as the geometric centre [1.5 * 2^i]. *)

type t
(** A registry: a named set of counters and histograms. *)

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create the counter named [name].  Hold on to the handle in
    hot code; lookup hashes the name. *)

type handles
(** Counter handles interned by name on first use, for code whose
    counter names are not all known up front (per-peer or per-operation
    names).  A name reaches the registry once, the first time it is
    counted, so a counter that never fires is never registered. *)

val handles : ?prefix:string -> t -> handles
(** An empty handle table over a registry.  [handle hs name] stands for
    the counter [prefix ^ name] ([prefix] defaults to [""]). *)

val handle : handles -> string -> counter
(** The counter for [name]: a registry {!counter} call the first time,
    a table hit after that. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] adds [n] (ignored when [n <= 0]); saturates at [max_int]. *)

val counter_name : counter -> string
val counter_value : counter -> int

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram
(** Get or create the histogram named [name]. *)

val observe : histogram -> int -> unit
(** Record one sample (negative samples clamp to 0). *)

val observe_ns : histogram -> int64 -> unit
(** {!observe} for simulated-clock durations.  Clamps to
    [[0, max_int]] in int64 space, so a 0-duration sample lands in
    bucket 0 and a duration beyond the int range saturates into the
    top bucket instead of wrapping negative. *)

val histogram_name : histogram -> string
val count : histogram -> int
val sum_ns : histogram -> int
val max_ns : histogram -> int
val mean_ns : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [[0, 100]]: the representative value of
    the first bucket whose cumulative count reaches rank
    [ceil (p/100 * count)].  [0.] on an empty histogram. *)

(** {1 Introspection} *)

val find_counter : t -> string -> counter option
val find_histogram : t -> string -> histogram option

val counter_value_of : t -> string -> int
(** The counter's value, or [0] when it was never created. *)

val lookups : t -> int
(** How many by-name registry probes ({!counter}, {!histogram},
    {!find_counter}, {!find_histogram}) have run since {!create}.
    Hot paths must hold handles instead of probing; tests assert this
    stays flat across a warm check. *)

val counters : t -> counter list
(** All counters, sorted by name (deterministic output order). *)

val histograms : t -> histogram list
(** All histograms, sorted by name. *)

val reset : t -> unit
(** Drop every counter and histogram.  Outstanding handles keep
    working but are no longer reachable from the registry. *)

(** {1 Export} *)

val escape_json : string -> string
(** JSON string-body escaping (quotes, backslashes, control chars). *)

val histogram_json : histogram -> string
(** One histogram as a JSON object:
    [{"count":..,"sum_ns":..,"max_ns":..,"mean_ns":..,"p50_ns":..,
    "p95_ns":..,"p99_ns":..}]. *)

val to_json : t -> string
(** The whole registry:
    [{"counters":{name:value,..},"histograms":{name:{..},..}}], keys
    sorted by name. *)
