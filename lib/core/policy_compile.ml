(* The policy compiler: snapshot the box's reachable ACL universe into
   an {!Idbox_kernel.Policy} decision program.

   Compilation walks the filesystem host-side (no delegated syscalls —
   the whole compile is charged flat at
   {!Idbox_kernel.Cost.t.bytecode_compile_ns} by the caller, off the
   hot path), mirroring the enforcement engine's resolution semantics
   exactly: the supervisor's uid for every access, ancestor symlinks
   resolved with the same expansion budget, unparseable ACLs compiled
   as deny-all, unreadable ones as "no ACL".

   Anything the snapshot cannot answer as a pure function of
   (governing ACL, principal, right) is recorded as NOT COMPILED
   (value -1) rather than omitted — existing objects must occupy the
   path table even when uncompilable, or the "a miss is governed by the
   parent's ACL" reading of a path-table miss would break.  That reading
   also covers plain files created after the snapshot: their entry
   would be the parent's ACL, so plain-file churn does not bump the
   policy generation the program is keyed on.  ACL files, and symlinks
   that land on one, are NOT COMPILED too: the engine refuses them
   whatever the ACL says.  Subtrees
   the supervisor cannot enumerate are omitted entirely, which is
   safe: their directories never enter the dir table either, so every
   probe in them misses to [Unknown].

   The verifier runs before anything is installed: the structural
   check ({!Idbox_kernel.Policy.check_program}: size bounds, perfect
   placement, RET termination) plus a seeded semantic sample that
   re-derives verdicts from the live filesystem and rejects any
   program that disagrees.  Rejection falls closed to the interpreter,
   never to allow. *)

module Policy = Idbox_kernel.Policy
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Wildcard = Idbox_identity.Wildcard
module Principal = Idbox_identity.Principal
module Path = Idbox_vfs.Path
module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode

(* --- rights as mask bits ---------------------------------------------

   The VM is policy-agnostic: rights travel as bit positions defined
   here, by position in {!Right.all}, independent of the internal
   encoding of {!Rights.t}. *)

let right_bit r =
  let rec idx i = function
    | [] -> invalid_arg "Policy_compile.right_bit"
    | x :: rest -> if Right.equal x r then i else idx (i + 1) rest
  in
  idx 0 Right.all

let rights_mask rights =
  List.fold_left
    (fun m r -> if Rights.mem r rights then m lor (1 lsl right_bit r) else m)
    0 Right.all

(* --- host-side resolution mirrors ------------------------------------ *)

(* Mirror of [Enforce.resolve_final]: chase the final component's
   symlink chain with the supervisor's uid and the shared budget;
   ancestors are canonicalised by the walk [Enforce] charges for. *)
let resolve_final fs ~uid path =
  let rec go path depth =
    match Fs.lstat fs ~uid path with
    | Ok st when st.Fs.st_kind = Inode.Symlink && depth < Fs.symlink_limit ->
      (match Fs.readlink fs ~uid path with
       | Ok target -> go (fst (Fs.expand_link fs ~link:path target)) (depth + 1)
       | Error _ -> path)
    | Ok _ | Error _ -> path
  in
  go (fst (Fs.canonical_parents fs path)) 0

(* Mirror of [Enforce.read_acl_file] + [dir_acl] fail-closed rules:
   unreadable (or absent) ACL file -> no ACL; unparseable -> deny-all. *)
let acl_of_dir fs ~uid dir =
  match Fs.read_file fs ~uid (Path.join dir Acl.filename) with
  | Error _ -> None
  | Ok text ->
    (match Acl.of_string text with
     | Ok acl -> Some acl
     | Error _ -> Some Acl.empty)

(* --- the snapshot walk ------------------------------------------------ *)

type snapshot = {
  (* ACL universe, deduplicated by rendered text. *)
  mutable acls : Acl.t list;  (* reversed; index = id *)
  acl_ids : (string, int) Hashtbl.t;
  (* lexical dir path -> ACL id or -1 *)
  dirs : (string, int) Hashtbl.t;
  (* lexical object path -> governing ACL id or -1 *)
  paths : (string, int) Hashtbl.t;
  mutable overflow : bool;
}

let max_universe = Policy.max_table / 4

let intern_acl snap acl =
  let key = Acl.to_string acl in
  match Hashtbl.find_opt snap.acl_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length snap.acl_ids in
    Hashtbl.replace snap.acl_ids key id;
    snap.acls <- acl :: snap.acls;
    id

let add_dir snap path v =
  if Hashtbl.length snap.dirs >= max_universe then snap.overflow <- true
  else Hashtbl.replace snap.dirs path v

let add_path snap path v =
  if Hashtbl.length snap.paths >= max_universe then snap.overflow <- true
  else Hashtbl.replace snap.paths path v

(* The governing-ACL id for an object's final resolved path, or -1. *)
let object_value fs ~uid snap final =
  match acl_of_dir fs ~uid (Path.dirname final) with
  | Some acl -> intern_acl snap acl
  | None -> -1

let snapshot fs ~uid =
  let snap =
    {
      acls = [];
      acl_ids = Hashtbl.create 16;
      dirs = Hashtbl.create 64;
      paths = Hashtbl.create 256;
      overflow = false;
    }
  in
  let rec walk_dir dir =
    if snap.overflow then ()
    else
      let own_acl = acl_of_dir fs ~uid dir in
      match Fs.readdir fs ~uid dir with
      | Error _ ->
        (* Cannot enumerate: children stay unknown, so neither
           nonexistence claims nor in-dir verdicts may come from here. *)
        add_dir snap dir (-1)
      | Ok names ->
        add_dir snap dir
          (match own_acl with Some a -> intern_acl snap a | None -> -1);
        List.iter
          (fun name ->
            if not snap.overflow then begin
              let child =
                if String.equal dir "/" then "/" ^ name else dir ^ "/" ^ name
              in
              match Fs.lstat fs ~uid child with
              | Error _ ->
                (* Present in the listing but not statable: occupy the
                   slot, answer nothing. *)
                add_path snap child (-1)
              | Ok _ when String.equal name Acl.filename ->
                (* The engine refuses an ACL file for every right; a
                   directory of that name is left unwalked, so probes
                   under it miss to [Unknown]. *)
                add_path snap child (-1)
              | Ok st ->
                (match st.Fs.st_kind with
                 | Inode.Directory ->
                   add_path snap child
                     (match own_acl with
                      | Some a -> intern_acl snap a
                      | None -> -1);
                   walk_dir child
                 | Inode.Symlink ->
                   let final = resolve_final fs ~uid child in
                   add_path snap child
                     (if String.equal (Path.basename final) Acl.filename then -1
                      else object_value fs ~uid snap final);
                   (* A symlink that lands on a directory also serves as
                      a directory alias for parent-fallback probes — but
                      only when the target's children are all plain
                      (a symlink child would be chased by the engine,
                      diverging from the alias's own ACL answer). *)
                   (match Fs.lstat fs ~uid final with
                    | Ok fst when fst.Fs.st_kind = Inode.Directory ->
                      let alias_value =
                        match (acl_of_dir fs ~uid final, Fs.readdir fs ~uid final) with
                        | Some a, Ok children
                          when List.for_all
                                 (fun n ->
                                   let p =
                                     if String.equal final "/" then "/" ^ n
                                     else final ^ "/" ^ n
                                   in
                                   match Fs.lstat fs ~uid p with
                                   | Ok s -> s.Fs.st_kind <> Inode.Symlink
                                   | Error _ -> false)
                                 children -> intern_acl snap a
                        | _ -> -1
                      in
                      add_dir snap child alias_value
                    | Ok _ | Error _ -> ())
                 | _ ->
                   add_path snap child
                     (match own_acl with
                      | Some a -> intern_acl snap a
                      | None -> -1))
            end)
          names
  in
  (* Root is both a directory and an object governed by itself. *)
  walk_dir "/";
  if not snap.overflow then begin
    match acl_of_dir fs ~uid "/" with
    | Some a -> add_path snap "/" (intern_acl snap a)
    | None -> add_path snap "/" (-1)
  end;
  snap

(* --- program construction --------------------------------------------- *)

(* Try seeds until every key lands in a distinct slot: the perfect-hash
   construction.  Grows the table (up to the budget) when no seed in
   the trial window works. *)
let build_table ~slot items =
  let n = List.length items in
  let rec pow2 x = if x >= n * 2 && x >= 4 then x else pow2 (x * 2) in
  let rec try_len len =
    if len > Policy.max_table then None
    else
      let rec try_seed seed trials =
        if trials = 0 then None
        else begin
          let key = Array.make len (-1) in
          let value = Array.make len (-1) in
          let ok = ref true in
          List.iter
            (fun (k, pool_idx, v) ->
              if !ok then begin
                let i = slot ~seed ~len k in
                if key.(i) >= 0 then ok := false
                else begin
                  key.(i) <- pool_idx;
                  value.(i) <- v
                end
              end)
            items;
          if !ok then Some (seed, key, value) else try_seed (seed + 1) (trials - 1)
        end
      in
      match try_seed 1 64 with
      | Some r -> Some r
      | None -> try_len (len * 2)
  in
  try_len (pow2 4)

let build_program fs ~uid =
  let snap = snapshot fs ~uid in
  if snap.overflow then Error "universe exceeds compile budget"
  else begin
    let pool = ref [] and pool_n = ref 0 in
    let interned = Hashtbl.create 256 in
    let intern s =
      match Hashtbl.find_opt interned s with
      | Some i -> i
      | None ->
        let i = !pool_n in
        Hashtbl.replace interned s i;
        pool := s :: !pool;
        incr pool_n;
        i
    in
    let acls = Array.of_list (List.rev snap.acls) in
    (* Per-ACL: exact rows for literal patterns (union per principal,
       matching [Acl.rights_of]), one WILD instruction per wildcard
       entry, RET-terminated blocks in one flat stream. *)
    let code = ref [] and code_n = ref 0 in
    let emit i =
      code := i :: !code;
      incr code_n
    in
    let exact_rows = ref [] in
    let acl_off = Array.make (Array.length acls) 0 in
    let pattern_too_long = ref false in
    Array.iteri
      (fun id acl ->
        acl_off.(id) <- !code_n;
        let literal = Hashtbl.create 8 in
        List.iter
          (fun (e : Entry.t) ->
            let src = Wildcard.source e.Entry.pattern in
            if Wildcard.is_literal e.Entry.pattern then begin
              let prior =
                Option.value (Hashtbl.find_opt literal src) ~default:0
              in
              Hashtbl.replace literal src
                (prior lor rights_mask e.Entry.rights)
            end
            else begin
              if String.length src > Policy.max_pattern then
                pattern_too_long := true;
              emit Policy.op_wild;
              emit (intern src);
              emit (rights_mask e.Entry.rights)
            end)
          (Acl.entries acl);
        emit Policy.op_ret;
        Hashtbl.iter
          (fun principal mask ->
            exact_rows := (principal, id, mask) :: !exact_rows)
          literal)
      acls;
    if !pattern_too_long then Error "wildcard pattern exceeds budget"
    else begin
      let dir_items =
        Hashtbl.fold (fun k v acc -> (k, intern k, v) :: acc) snap.dirs []
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
      in
      let path_items =
        Hashtbl.fold (fun k v acc -> (k, intern k, v) :: acc) snap.paths []
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
      in
      let ex_items =
        List.map (fun (p, id, mask) -> (p, intern p, id, mask)) !exact_rows
        |> List.sort (fun (a, _, i, _) (b, _, j, _) ->
               match String.compare a b with 0 -> Int.compare i j | c -> c)
      in
      match
        ( build_table ~slot:Policy.dir_slot dir_items,
          build_table ~slot:Policy.path_slot path_items,
          build_table
            ~slot:(fun ~seed ~len (k, acl) -> Policy.ex_slot ~seed ~len ~acl k)
            (List.map (fun (p, pi, id, mask) -> ((p, id), pi, mask)) ex_items)
        )
      with
      | Some (ds, dk, dv), Some (ps, pk, pv), Some (es, ek, em) ->
        (* The exact table needs the ACL id alongside the mask: rebuild
           the parallel acl array from the placed keys. *)
        let ea = Array.make (Array.length ek) (-1) in
        List.iter
          (fun (p, _, id, _) ->
            let i = Policy.ex_slot ~seed:es ~len:(Array.length ek) ~acl:id p in
            if ek.(i) >= 0 then ea.(i) <- id)
          ex_items;
        let p =
          {
            Policy.p_gen = Fs.policy_generation fs;
            p_pool = Array.of_list (List.rev !pool);
            p_code = Array.of_list (List.rev !code);
            p_acl_off = acl_off;
            p_dir_seed = ds;
            p_dir_key = dk;
            p_dir_val = dv;
            p_path_seed = ps;
            p_path_key = pk;
            p_path_val = pv;
            p_ex_seed = es;
            p_ex_key = ek;
            p_ex_acl = ea;
            p_ex_mask = em;
          }
        in
        Ok (p, snap)
      | _ -> Error "no perfect hash within table budget"
    end
  end

(* --- the seeded semantic verifier ------------------------------------- *)

(* Deterministic splitmix-style PRNG: no wall-clock, no global state. *)
let prng seed =
  let state = ref (seed land 0x3FFFFFFFFFFFFFF) in
  fun bound ->
    state := ((!state * 0x2545F4914F6CDD1D) + 0x9E3779B97F4A7C1) land max_int;
    (!state lsr 17) mod bound

(* Re-derive the expected verdict for one sampled check from the live
   filesystem — independent of the snapshot the program was built from.
   [None] means the engine would use the nobody fallback (not a pure
   ACL function), where the program must answer [Unknown]. *)
let expected_verdict fs ~uid ~path ~principal right =
  let final = resolve_final fs ~uid path in
  match acl_of_dir fs ~uid (Path.dirname final) with
  | Some acl -> Some (Acl.check acl principal right)
  | None -> None

let verify fs ~uid ~seed ~samples prog snap =
  let paths =
    Hashtbl.fold (fun k _ acc -> k :: acc) snap.paths []
    |> List.sort String.compare
    |> Array.of_list
  in
  let dirs =
    Hashtbl.fold (fun k _ acc -> k :: acc) snap.dirs []
    |> List.sort String.compare
    |> Array.of_list
  in
  let principals =
    let literals =
      List.concat_map
        (fun acl ->
          List.filter_map
            (fun (e : Entry.t) ->
              if Wildcard.is_literal e.Entry.pattern then
                Some (Wildcard.source e.Entry.pattern)
              else None)
            (Acl.entries acl))
        snap.acls
    in
    Array.of_list
      (List.sort_uniq String.compare
         (("unix:nobody" :: "globus:/O=Elsewhere/CN=stranger" :: literals)))
  in
  let rights = Array.of_list Right.all in
  let rand = prng seed in
  let disagreement = ref None in
  let n_paths = Array.length paths and n_dirs = Array.length dirs in
  if n_paths = 0 && n_dirs = 0 then Ok ()
  else begin
    for _ = 1 to samples do
      if !disagreement = None then begin
        let principal = Principal.of_string principals.(rand (Array.length principals)) in
        (* Evaluate with the canonical rendering — exactly the string
           the engine presents at check time. *)
        let who = Principal.to_string principal in
        let right = rights.(rand (Array.length rights)) in
        let bit = right_bit right in
        (* Three probe shapes: an existing object, a nonexistent child
           of an existing directory, and an in-dir check. *)
        let shape = rand 3 in
        if shape = 0 && n_paths > 0 then begin
          let path = paths.(rand n_paths) in
          let got = Policy.eval_object prog ~principal:who ~path ~right_bit:bit in
          match (expected_verdict fs ~uid ~path ~principal right, got) with
          | Some true, Policy.Deny | Some false, Policy.Allow ->
            disagreement :=
              Some (Printf.sprintf "object %s %s %c" path who (Right.to_char right))
          | None, Policy.Allow | None, Policy.Deny ->
            disagreement :=
              Some (Printf.sprintf "fallback %s answered by program" path)
          | _ -> ()
        end
        else if shape = 1 && n_dirs > 0 then begin
          let dir = dirs.(rand n_dirs) in
          let path =
            if String.equal dir "/" then "/__pc_probe" else dir ^ "/__pc_probe"
          in
          let got = Policy.eval_object prog ~principal:who ~path ~right_bit:bit in
          match (expected_verdict fs ~uid ~path ~principal right, got) with
          | Some true, Policy.Deny | Some false, Policy.Allow ->
            disagreement :=
              Some
                (Printf.sprintf "absent %s %s %c" path who (Right.to_char right))
          | None, Policy.Allow | None, Policy.Deny ->
            disagreement :=
              Some (Printf.sprintf "fallback %s answered by program" path)
          | _ -> ()
        end
        else if n_dirs > 0 then begin
          let dir = dirs.(rand n_dirs) in
          let got = Policy.eval_in_dir prog ~principal:who ~dir ~right_bit:bit in
          let want =
            match acl_of_dir fs ~uid dir with
            | Some acl -> Some (Acl.check acl principal right)
            | None -> None
          in
          match (want, got) with
          | Some true, Policy.Deny | Some false, Policy.Allow ->
            disagreement :=
              Some (Printf.sprintf "in-dir %s %s %c" dir who (Right.to_char right))
          | None, Policy.Allow | None, Policy.Deny ->
            disagreement :=
              Some (Printf.sprintf "fallback dir %s answered by program" dir)
          | _ -> ()
        end
      end
    done;
    match !disagreement with
    | Some what -> Error ("verifier: program disagrees with interpreter: " ^ what)
    | None -> Ok ()
  end

(* --- entry point ------------------------------------------------------ *)

let compile ?tamper ?(verify_seed = 0x1db0) ?(verify_samples = 256) fs ~uid =
  match build_program fs ~uid with
  | Error _ as e -> e
  | Ok (prog, snap) ->
    let prog = match tamper with Some f -> f prog | None -> prog in
    (match Policy.check_program prog with
     | Error msg -> Error ("verifier: " ^ msg)
     | Ok () ->
       (match verify fs ~uid ~seed:verify_seed ~samples:verify_samples prog snap with
        | Error _ as e -> e
        | Ok () -> Ok prog))
