(** A consistent-hash ring over node names, with virtual nodes.

    Keys (namespace prefixes) and nodes hash onto the same 64-bit
    circle; a key belongs to the first node point at or clockwise from
    its hash.  Each node contributes 64 points, smoothing the
    load split.  Hashing is MD5-based, so placement is deterministic
    across runs and processes — a property the cluster's byte-identical
    chaos replays rely on.

    The structural guarantee of consistent hashing, which the property
    suite pins down: adding a node moves keys only {e onto} the new
    node; removing a node moves only the keys it owned.  Everything
    else stays put, so rebalancing touches only the affected ranges. *)

type t

val create : string list -> t
(** A ring over the given node names (duplicates collapsed). *)

val nodes : t -> string list
(** Member names, sorted. *)

val is_empty : t -> bool

val add : t -> string -> t
(** The ring with one more node (no-op when already present). *)

val remove : t -> string -> t
(** The ring without a node (no-op when absent). *)

val lookup : t -> string -> string option
(** The node owning a key; [None] on an empty ring. *)

val successors : t -> string -> int -> string list
(** [successors t key n]: the first [min n (nodes t)] {e distinct}
    nodes clockwise from the key's position — the key's replica set,
    primary first. *)

val owners_equal : t -> t -> string -> int -> bool
(** Do two rings assign the same replica set (same order) to a key? *)
