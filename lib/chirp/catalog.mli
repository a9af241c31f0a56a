(** The Chirp catalog: servers report themselves; clients discover the
    set of available servers (paper §4).  A deliberately simple
    register/list service over the simulated network.

    Registrations are leases, not facts: a server must heartbeat (which
    is just a repeated registration) or it is evicted after
    [staleness_ns] and stops being advertised.  A server cut off by a
    partition therefore disappears from [list] and reappears on its
    first heartbeat after the partition heals. *)

type entry = {
  name : string;  (** The server's self-chosen name. *)
  server_addr : string;  (** Where to connect. *)
  owner : string;  (** Deploying principal, informational. *)
  registered_at : int64;  (** Simulated time of first registration. *)
  mutable last_heartbeat : int64;  (** Simulated time of latest check-in. *)
}

type t

val create : ?staleness_ns:int64 -> Idbox_net.Network.t -> addr:string -> t
(** Start a catalog service listening at [addr].  Entries older than
    [staleness_ns] (default 300 s) since their last heartbeat are
    evicted. *)

val addr : t -> string

val entries : t -> entry list
(** Current (non-stale) registrations, sorted by name. *)

val shutdown : t -> unit

(** {1 Client side} *)

val register :
  ?src:string ->
  Idbox_net.Network.t ->
  catalog:string ->
  name:string ->
  server_addr:string ->
  owner:string ->
  (unit, string) result
(** What a server does at startup; {!heartbeat} repeats it
    periodically.  Re-registering the same name at the same address
    refreshes the lease without resetting [registered_at]. *)

val deregister :
  ?src:string ->
  Idbox_net.Network.t ->
  catalog:string ->
  name:string ->
  (unit, string) result
(** A clean departure (scale-down): drop the lease now instead of
    letting it age out, so the next [list] no longer advertises the
    server (counted as [catalog.deregister]). *)

val list :
  ?src:string ->
  ?timeout_ns:int64 ->
  Idbox_net.Network.t ->
  catalog:string ->
  (entry list, string) result
(** What an interested party does to discover servers.  [timeout_ns]
    bounds the wait — cluster nodes polling from inside a request
    handler use a short one, so a lost catalog reply cannot stall the
    request a full client timeout. *)

(** {1 Heartbeat driver}

    The simulated world has no background threads, so heartbeating is a
    cooperative object: create one, then call {!tick} whenever the
    owning code gets control (e.g. once per workload step).  [tick]
    sends a heartbeat when one is due and is a cheap no-op otherwise. *)

type heartbeat

val heartbeat :
  ?src:string ->
  ?interval_ns:int64 ->
  Idbox_net.Network.t ->
  catalog:string ->
  name:string ->
  server_addr:string ->
  owner:string ->
  heartbeat
(** Register immediately (best-effort) and heartbeat every
    [interval_ns] (default 60 s) thereafter via {!tick}. *)

val tick : heartbeat -> bool
(** Send a heartbeat if one is due.  Returns [true] on a successful
    send; on failure the heartbeat stays due, so the next [tick]
    retries immediately — re-registration happens on the first tick
    after a partition heals. *)

val heartbeats_missed : heartbeat -> int
