module Rights = Idbox_acl.Rights

type token = {
  dg_delegator : string;
  dg_delegatee : string;
  dg_rights : Rights.t;
  dg_prefix : string;
  dg_issued : int64;
  dg_expires : int64;
  dg_hops : int;
  dg_epoch : int;
  dg_nonce : string;
  dg_issuer : string;
  dg_stamp : string;
}

type chain = token list

type failure =
  | F_empty
  | F_expired
  | F_forged
  | F_broken
  | F_cycle
  | F_over_hop
  | F_revoked
  | F_widened

let failure_name = function
  | F_empty -> "empty"
  | F_expired -> "expired"
  | F_forged -> "forged"
  | F_broken -> "broken"
  | F_cycle -> "cycle"
  | F_over_hop -> "over_hop"
  | F_revoked -> "revoked"
  | F_widened -> "widened"

let failure_message = function
  | F_empty -> "delegation chain is empty"
  | F_expired -> "delegation token expired"
  | F_forged -> "delegation token forged or untrusted issuer"
  | F_broken -> "delegation chain linkage broken"
  | F_cycle -> "delegation chain contains a cycle"
  | F_over_hop -> "delegation chain exceeds a hop limit"
  | F_revoked -> "delegation token revoked"
  | F_widened -> "delegation scope widens along the chain"

type summary = {
  sum_root : string;
  sum_holder : string;
  sum_grant : Rights.t;
  sum_prefix : string;
  sum_expires : int64;
  sum_hops : int;
}

module Revocations = struct
  type t = {
    rv_epochs : (string, int) Hashtbl.t;
    mutable rv_gen : int;
  }

  let create () = { rv_epochs = Hashtbl.create 8; rv_gen = 0 }

  let epoch t delegator =
    match Hashtbl.find_opt t.rv_epochs delegator with
    | Some e -> e
    | None -> 0

  let revoke t delegator =
    let e = epoch t delegator + 1 in
    Hashtbl.replace t.rv_epochs delegator e;
    t.rv_gen <- t.rv_gen + 1;
    e

  let merge t entries =
    let changed = ref false in
    List.iter
      (fun (delegator, e) ->
        if e > epoch t delegator then begin
          Hashtbl.replace t.rv_epochs delegator e;
          changed := true
        end)
      entries;
    if !changed then t.rv_gen <- t.rv_gen + 1;
    !changed

  let entries t =
    Hashtbl.fold
      (fun d e acc -> if e > 0 then (d, e) :: acc else acc)
      t.rv_epochs []
    |> List.sort compare

  let generation t = t.rv_gen

  let to_fields entries =
    List.concat_map (fun (d, e) -> [ d; string_of_int e ]) entries

  let of_fields fields =
    let rec go acc = function
      | d :: e :: rest ->
        (match int_of_string_opt e with
         | Some e -> go ((d, e) :: acc) rest
         | None -> List.rev acc)
      | [] | [ _ ] -> List.rev acc
    in
    go [] fields
end

(* The attested payload covers every field: tampering with any of them
   — including the epoch, so a revoked token cannot be "un-revoked" by
   rewriting it — breaks the stamp. *)
let payload ~delegator ~delegatee ~rights ~prefix ~issued ~expires ~hops ~epoch
    ~nonce =
  Printf.sprintf "delegate|%s|%s|%s|%s|%Ld|%Ld|%d|%d|%s" delegator delegatee
    (Rights.to_string rights)
    prefix issued expires hops epoch nonce

let mint ca ~delegator ~delegatee ~rights ~prefix ~now ~ttl_ns ~hops
    ?(epoch = 0) () =
  let expires = Int64.add now ttl_ns in
  let nonce =
    (* Deterministic per mint: the CA's serial counter, attested so a
       nonce cannot be grafted onto a different CA's chain. *)
    Ca.attest ca (Printf.sprintf "nonce|%d|%s|%s" (Ca.fresh_serial ca) delegator delegatee)
  in
  let body =
    payload ~delegator ~delegatee ~rights ~prefix ~issued:now ~expires ~hops
      ~epoch ~nonce
  in
  {
    dg_delegator = delegator;
    dg_delegatee = delegatee;
    dg_rights = rights;
    dg_prefix = prefix;
    dg_issued = now;
    dg_expires = expires;
    dg_hops = hops;
    dg_epoch = epoch;
    dg_nonce = nonce;
    dg_issuer = Ca.name ca;
    dg_stamp = Ca.attest ca body;
  }

let verify_token ~trusted tok =
  List.exists
    (fun ca ->
      String.equal (Ca.name ca) tok.dg_issuer
      && String.equal tok.dg_stamp
           (Ca.attest ca
              (payload ~delegator:tok.dg_delegator ~delegatee:tok.dg_delegatee
                 ~rights:tok.dg_rights ~prefix:tok.dg_prefix
                 ~issued:tok.dg_issued ~expires:tok.dg_expires
                 ~hops:tok.dg_hops ~epoch:tok.dg_epoch ~nonce:tok.dg_nonce)))
    trusted

let scope_contains ~prefix path =
  String.equal prefix "/" || String.equal prefix path
  || (String.length path > String.length prefix
      && String.starts_with ~prefix path
      && path.[String.length prefix] = '/')

(* Checked in a fixed order so a chain with several defects reports the
   same failure every run — chaos replays depend on it. *)
let validate ~trusted ~revocations ~now ~holder chain =
  let n = List.length chain in
  if n = 0 then Error F_empty
  else
    let rec over_hop i = function
      | [] -> false
      | tok :: rest -> n - i > tok.dg_hops || over_hop (i + 1) rest
    in
    if over_hop 0 chain then Error F_over_hop
    else if not (List.for_all (verify_token ~trusted) chain) then Error F_forged
    else if
      not
        (List.for_all
           (fun tok -> Expiry.valid_at ~now ~expires:tok.dg_expires)
           chain)
    then Error F_expired
    else
      let rec linked = function
        | a :: (b :: _ as rest) ->
          String.equal a.dg_delegatee b.dg_delegator && linked rest
        | [ last ] -> String.equal last.dg_delegatee holder
        | [] -> true
      in
      if not (linked chain) then Error F_broken
      else
        let principals =
          (List.hd chain).dg_delegator :: List.map (fun t -> t.dg_delegatee) chain
        in
        if
          List.length (List.sort_uniq String.compare principals)
          <> List.length principals
        then Error F_cycle
        else
          let rec nested = function
            | a :: (b :: _ as rest) ->
              scope_contains ~prefix:a.dg_prefix b.dg_prefix && nested rest
            | _ -> true
          in
          if not (nested chain) then Error F_widened
          else if
            List.exists
              (fun tok ->
                tok.dg_epoch < Revocations.epoch revocations tok.dg_delegator)
              chain
          then Error F_revoked
          else
            let last = List.nth chain (n - 1) in
            Ok
              {
                sum_root = (List.hd chain).dg_delegator;
                sum_holder = holder;
                sum_grant =
                  List.fold_left
                    (fun acc tok -> Rights.inter acc tok.dg_rights)
                    Rights.full chain;
                sum_prefix = last.dg_prefix;
                sum_expires =
                  List.fold_left
                    (fun acc tok -> Int64.min acc tok.dg_expires)
                    Int64.max_int chain;
                sum_hops = n;
              }

let chain_key ~holder chain =
  String.concat "\x00" (holder :: List.map (fun t -> t.dg_stamp) chain)

let token_fields tok =
  [
    tok.dg_delegator;
    tok.dg_delegatee;
    Rights.to_string tok.dg_rights;
    tok.dg_prefix;
    Int64.to_string tok.dg_issued;
    Int64.to_string tok.dg_expires;
    string_of_int tok.dg_hops;
    string_of_int tok.dg_epoch;
    tok.dg_nonce;
    tok.dg_issuer;
    tok.dg_stamp;
  ]

let token_of_fields = function
  | [
      delegator; delegatee; rights; prefix; issued; expires; hops; epoch;
      nonce; issuer; stamp;
    ] ->
    (match
       ( Rights.of_string rights,
         Int64.of_string_opt issued,
         Int64.of_string_opt expires,
         int_of_string_opt hops,
         int_of_string_opt epoch )
     with
     | Ok dg_rights, Some dg_issued, Some dg_expires, Some dg_hops, Some dg_epoch
       ->
       Ok
         {
           dg_delegator = delegator;
           dg_delegatee = delegatee;
           dg_rights;
           dg_prefix = prefix;
           dg_issued;
           dg_expires;
           dg_hops;
           dg_epoch;
           dg_nonce = nonce;
           dg_issuer = issuer;
           dg_stamp = stamp;
         }
     | Error e, _, _, _, _ -> Error ("bad delegation rights: " ^ e)
     | _ -> Error "bad delegation token numbers")
  | _ -> Error "bad delegation token shape"
