(** Per-node health scoring for the control plane.

    Each node's pressure signals — mutation-queue depth, session-table
    fullness, brownout, error rate, heartbeat age, tail latency over
    SLO — are folded into one 0..100 score (100 = idle and healthy),
    smoothed with an integer EWMA, and classified into a level with
    dual-threshold hysteresis so a node oscillating around one boundary
    cannot flap between levels.  The {!Autoscaler} consumes the
    aggregate; the router and operators read per-node levels.

    Everything is deterministic and driven by the simulated clock:
    sampling is explicit ({!observe}), never background. *)

type level =
  | Healthy  (** Full member: takes reads and writes. *)
  | Degraded  (** Under pressure: still serving, scored down. *)
  | Unhealthy  (** Shedding or near-dead: candidate for replacement. *)

val level_name : level -> string

type sample = {
  s_queue_pct : int;  (** Parked-mutation queue fullness, 0..100. *)
  s_session_pct : int;  (** Session-table fullness, 0..100. *)
  s_brownout : bool;  (** Server currently shedding mutations. *)
  s_error_pct : int;  (** Errors+timeouts as % of recent requests. *)
  s_hb_age_pct : int;  (** Heartbeat age as % of the lease window. *)
  s_p95_slo_pct : int;  (** p95 latency as % of SLO (100 = at SLO). *)
}

val idle_sample : sample
(** All-quiet: scores 100.  Use as a base for record updates. *)

val sample_server :
  ?error_pct:int ->
  ?hb_age_pct:int ->
  ?p95_slo_pct:int ->
  Idbox_chirp.Server.t ->
  sample
(** A sample straight off a server's own gauges (queue, sessions,
    brownout).  Error rate, heartbeat age and latency live elsewhere
    (metric deltas, the membership view, the caller's histogram) and
    default to 0 — pass them when known. *)

type config = {
  ewma_weight : int;  (** EWMA divisor; 4 ≈ half-life of ~3 samples. *)
  healthy_enter : int;  (** Score to (re)gain [Healthy]. *)
  healthy_exit : int;  (** Score below which [Healthy] is lost. *)
  unhealthy_enter : int;  (** Score below which [Unhealthy] begins. *)
  unhealthy_exit : int;  (** Score to leave [Unhealthy]. *)
}

val default_config : config
(** EWMA weight 4; healthy 70/60, unhealthy 35/45. *)

type t

val create :
  ?config:config ->
  ?trace:Idbox_kernel.Trace.ring ->
  clock:Idbox_kernel.Clock.t ->
  metrics:Idbox_kernel.Metrics.t ->
  unit ->
  t
(** An empty scorer.  Level transitions emit [cluster.health.up] /
    [cluster.health.down] counters and, when [trace] is given,
    [cluster.health] spans. *)

val observe : t -> name:string -> sample -> int
(** Fold one sample into [name]'s smoothed score and return it.  A
    first sample seeds the score directly (no warm-up grace). *)

val score : t -> string -> int
(** Current smoothed score (100 for an unknown node). *)

val level : t -> string -> level
(** Current level ([Healthy] for an unknown node). *)

val samples : t -> string -> int
(** How many samples have been folded in for [name]. *)

val forget : t -> string -> unit
(** Drop a node's state (after scale-down) so a later node reusing the
    name starts fresh. *)

val nodes : t -> (string * int * level) list
(** All known nodes as [(name, score, level)], sorted by name. *)

val aggregate : t -> int
(** Mean smoothed score across known nodes; 100 when none are known
    (an empty cluster is the autoscaler's min-envelope's business, not
    a health emergency). *)
