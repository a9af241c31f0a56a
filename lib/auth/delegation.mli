(** Certified delegation chains: signed, attenuated, auditable
    capability hand-offs (Schreiner et al.'s mediated definite
    delegation, PAPERS.md).

    A delegator A mints a {!token} naming a delegatee B, a rights mask,
    a path-prefix scope, an expiry, a hop limit and a chain nonce; the
    token is attested by the toy CA ({!Ca.attest}), so any verifier
    trusting the CA can check it without contacting A.  B may extend
    the chain toward C with a second token, and so on.  A verifier is
    handed the whole chain plus the authenticated holder and computes
    one {!summary}: the {e root} principal the work runs as, and a
    grant that is the {b intersection} of every hop's rights mask under
    the {b narrowest} hop's path prefix — attenuation is monotone by
    construction, and every structural defect (broken link, forged
    stamp, cycle, over-length, widened scope, expired or revoked hop)
    fails the whole chain closed.

    Expiry follows the {!Expiry} rule: a token is valid while
    [now <= dg_expires], boundary instant inclusive — the same rule as
    {!Cas.verify} and {!Kerberos.verify}.

    Revocation is by per-delegator {e epoch}: each token records the
    delegator's revocation epoch at mint time, and a verifier whose
    {!Revocations} store has since seen a higher epoch for that
    delegator rejects the hop.  Epochs only grow and merge by max, so
    replicas converge by gossip regardless of delivery order. *)

type token = {
  dg_delegator : string;  (** Principal string, e.g. [globus:/O=Grid/CN=Alice]. *)
  dg_delegatee : string;
  dg_rights : Idbox_acl.Rights.t;  (** This hop's grant mask. *)
  dg_prefix : string;  (** Path-prefix scope (wire path, normalized). *)
  dg_issued : int64;
  dg_expires : int64;
  dg_hops : int;
      (** Max chain length at or below this token: a token with
          [dg_hops = 1] cannot be extended further. *)
  dg_epoch : int;  (** The delegator's revocation epoch at mint time. *)
  dg_nonce : string;  (** Unique chain-link identifier. *)
  dg_issuer : string;  (** Name of the attesting CA. *)
  dg_stamp : string;  (** Keyed digest over every field above. *)
}

type chain = token list
(** Root first: [A->B; B->C] means A delegated to B, who extended to C. *)

(** Why a chain was refused — one constructor per chaos scenario. *)
type failure =
  | F_empty
  | F_expired
  | F_forged  (** Bad stamp, or no trusted CA matches the issuer. *)
  | F_broken  (** Link mismatch, or the holder is not the last delegatee. *)
  | F_cycle  (** A principal appears twice along the chain. *)
  | F_over_hop  (** Chain longer than some hop's [dg_hops] allows. *)
  | F_revoked  (** A hop's mint epoch predates the delegator's current epoch. *)
  | F_widened  (** A hop's prefix escapes its parent's scope. *)

val failure_name : failure -> string
(** Short metric-safe slug: ["expired"], ["forged"], ["cycle"], ... *)

val failure_message : failure -> string
(** Human-readable refusal reason for wire errors. *)

type summary = {
  sum_root : string;  (** The principal the delegated work runs as. *)
  sum_holder : string;
  sum_grant : Idbox_acl.Rights.t;  (** Intersection of every hop's mask. *)
  sum_prefix : string;  (** The narrowest (last) hop's scope. *)
  sum_expires : int64;  (** Earliest hop expiry. *)
  sum_hops : int;
}

(** Per-delegator revocation epochs.  Monotone: epochs only grow, and
    {!merge} is a pointwise max — the convergent replication shape. *)
module Revocations : sig
  type t

  val create : unit -> t

  val epoch : t -> string -> int
  (** Current epoch for a delegator; 0 when never revoked. *)

  val revoke : t -> string -> int
  (** Bump the delegator's epoch by one; returns the new epoch.  Every
      token the delegator minted under a lower epoch is dead. *)

  val merge : t -> (string * int) list -> bool
  (** Pointwise max-merge of a peer's entries; true iff anything grew. *)

  val entries : t -> (string * int) list
  (** All (delegator, epoch) pairs with epoch > 0, sorted. *)

  val generation : t -> int
  (** Bumped on every change — the validation token for memoized chain
      verdicts. *)

  val to_fields : (string * int) list -> string list
  (** The wire and checkpoint form: [delegator; epoch; ...]. *)

  val of_fields : string list -> (string * int) list
  (** Total inverse of {!to_fields}: stops at the first malformed pair. *)
end

val mint :
  Ca.t ->
  delegator:string ->
  delegatee:string ->
  rights:Idbox_acl.Rights.t ->
  prefix:string ->
  now:int64 ->
  ttl_ns:int64 ->
  hops:int ->
  ?epoch:int ->
  unit ->
  token
(** Mint one CA-attested hop.  [epoch] defaults to 0 — a delegator who
    has revoked must mint under their current epoch (see
    {!Revocations.epoch}) or the new token is dead on arrival. *)

val verify_token : trusted:Ca.t list -> token -> bool
(** Stamp integrity against some trusted CA whose name matches the
    token's issuer.  Structural only — expiry, linkage and revocation
    belong to {!validate}. *)

val validate :
  trusted:Ca.t list ->
  revocations:Revocations.t ->
  now:int64 ->
  holder:string ->
  chain ->
  (summary, failure) result
(** Validate a whole chain presented by [holder], fail-closed: the
    first defect (checked in a fixed order: empty, over-length, forged,
    expired, broken linkage, cycle, widened scope, revoked) rejects
    everything.  On success the summary carries the attenuated
    authority: root identity, intersected grant, narrowest prefix. *)

val scope_contains : prefix:string -> string -> bool
(** [scope_contains ~prefix path]: is [path] at or under [prefix]?
    Pure string containment over normalized paths; ["/"] contains
    everything. *)

val chain_key : holder:string -> chain -> string
(** A compact cache key covering every stamp in the chain plus the
    holder — two chains with the same key verify identically. *)

val token_fields : token -> string list
(** Flat wire encoding of one token (paired with {!token_of_fields}). *)

val token_of_fields : string list -> (token, string) result
