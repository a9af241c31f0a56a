(** The cluster's membership view, driven by catalog leases.

    Nothing here invents liveness: the catalog already treats
    registrations as leases (a server heartbeats or is evicted after
    its staleness window), so membership is exactly "what the catalog
    currently advertises".  A node cut off by a partition stops
    heartbeating, ages out of the catalog, and drops from this view —
    ejected.  Its first heartbeat after the partition heals re-registers
    it, and the next {!refresh} re-admits it.

    [refresh] is explicit (the simulated world has no background
    threads): callers refresh at their own cadence and learn whether
    the view changed, which is the router's cue to rebalance. *)

type t

type liveness = Alive | Suspect | Dead

val liveness_name : liveness -> string

type node_health = {
  nh_name : string;
  nh_addr : string;
  nh_heartbeat_age_ns : int64;  (** Since the node's last heartbeat. *)
  nh_lease_left_ns : int64;  (** Until the catalog would evict it. *)
  nh_liveness : liveness;
}

val create :
  ?src:string ->
  ?timeout_ns:int64 ->
  ?staleness_ns:int64 ->
  Idbox_net.Network.t ->
  catalog:string ->
  t
(** A view of the servers advertised by the catalog at [catalog].
    [src] (default ["client"]) names the observing host for partition
    matching; [timeout_ns] bounds each catalog read (cluster nodes
    refreshing from inside a request handler pass a short one);
    [staleness_ns] (default 300 s) must match the catalog's lease
    window — it is how {!health} converts heartbeat age into remaining
    lease.  The view starts empty; call {!refresh}. *)

val refresh : t -> (bool, string) result
(** Re-read the catalog.  [Ok true] when the membership changed
    (join or leave — counted as [cluster.member.join] /
    [cluster.member.leave]), [Ok false] when it is unchanged, [Error]
    when the catalog is unreachable — in which case the previous view
    is kept: an unreachable catalog is not evidence the servers died. *)

val view : t -> (string * string) list
(** Current members as [(name, addr)], sorted by name. *)

val names : t -> string list

val addr_of : t -> string -> string option
(** The advertised address of a member, by name. *)

val generation : t -> int
(** Bumped on every change-observing {!refresh} (starts at 0). *)

val health : t -> node_health list
(** Per-node liveness, judged from the {e last refresh} snapshot
    against the current clock: each node's heartbeat age and remaining
    lease keep aging between refreshes, so a node that died since we
    last looked drifts from [Alive] through [Suspect] (past half the
    lease) to [Dead] (lease exhausted) without another catalog round
    trip.  Sorted by name. *)
