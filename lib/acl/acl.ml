module Principal = Idbox_identity.Principal
module Wildcard = Idbox_identity.Wildcard

(* The compiled form of an ACL.  Literal patterns (no wildcard
   metacharacters) collapse into one hash table mapping the exact
   principal string to the union of their direct rights; genuinely wild
   entries stay as a (usually short) list scanned per principal.  A
   per-principal memo caches the final union, so a hot principal costs
   one probe.  The memo is bounded: a long-lived ACL probed by an
   unbounded stream of distinct principals (a server fielding one-shot
   sessions) must not grow without limit, so at [memo_capacity] entries
   the memo is flushed and the eviction counted — the next probe per
   principal just recomputes.  Built lazily on first [rights_of]; every
   update returns a fresh value with [matcher = None], so a compiled
   matcher can never outlive the entry list it was built from. *)
type matcher = {
  mx_exact : (string, Rights.t) Hashtbl.t;
  mx_wild : Entry.t list;
  mx_memo : (string, Rights.t) Hashtbl.t;
}

let memo_capacity = 512
let memo_evicted = ref 0
let memo_evictions () = !memo_evicted

type t = {
  rev_entries : Entry.t list;  (* reverse display order: O(1) append *)
  mutable matcher : matcher option;
}

let filename = ".__acl"

let empty = { rev_entries = []; matcher = None }

let of_entries entries = { rev_entries = List.rev entries; matcher = None }

let entries t = List.rev t.rev_entries
let length t = List.length t.rev_entries

let is_empty t = t.rev_entries = []

let build_matcher ents =
  let mx_exact = Hashtbl.create 16 in
  let wild = ref [] in
  List.iter
    (fun (e : Entry.t) ->
      if Wildcard.is_literal e.pattern then begin
        let key = Wildcard.source e.pattern in
        let prior =
          Option.value (Hashtbl.find_opt mx_exact key) ~default:Rights.empty
        in
        Hashtbl.replace mx_exact key (Rights.union prior e.rights)
      end
      else wild := e :: !wild)
    ents;
  { mx_exact; mx_wild = List.rev !wild; mx_memo = Hashtbl.create 16 }

let matcher t =
  match t.matcher with
  | Some m -> m
  | None ->
    let m = build_matcher (entries t) in
    t.matcher <- Some m;
    m

(* A memo hit allocates nothing: the key is the principal's own
   canonical string, and the lookup builds no option. *)
let rights_of t who =
  let m = matcher t in
  let key = Principal.to_string who in
  match Hashtbl.find m.mx_memo key with
  | r -> r
  | exception Not_found ->
    let base =
      Option.value (Hashtbl.find_opt m.mx_exact key) ~default:Rights.empty
    in
    let r =
      List.fold_left
        (fun acc (e : Entry.t) ->
          if Entry.covers e who then Rights.union acc e.rights else acc)
        base m.mx_wild
    in
    if Hashtbl.length m.mx_memo >= memo_capacity then begin
      memo_evicted := !memo_evicted + Hashtbl.length m.mx_memo;
      Hashtbl.reset m.mx_memo
    end;
    Hashtbl.replace m.mx_memo key r;
    r

let check t who r = Rights.mem r (rights_of t who)

let reserve_for t who =
  (* Union is order-independent, so folding the reversed list is fine. *)
  List.fold_left
    (fun acc (e : Entry.t) ->
      if Entry.covers e who then
        match (e.reserve, acc) with
        | None, _ -> acc
        | Some g, None -> Some g
        | Some g, Some prior -> Some (Rights.union g prior)
      else acc)
    None t.rev_entries

let pattern_text (e : Entry.t) = Wildcard.source e.pattern

let set_entry t entry =
  let key = pattern_text entry in
  if not (List.exists (fun e -> String.equal (pattern_text e) key) t.rev_entries)
  then { rev_entries = entry :: t.rev_entries; matcher = None }
  else begin
    (* Replace the first display occurrence and drop any later duplicates
       of the same pattern, so repeated grants never grow the list. *)
    let replaced = ref false in
    let display =
      List.filter_map
        (fun e ->
          if String.equal (pattern_text e) key then
            if !replaced then None
            else begin
              replaced := true;
              Some entry
            end
          else Some e)
        (entries t)
    in
    { rev_entries = List.rev display; matcher = None }
  end

let remove_pattern t pattern =
  {
    rev_entries =
      List.filter (fun e -> not (String.equal (pattern_text e) pattern)) t.rev_entries;
    matcher = None;
  }

let for_owner who =
  of_entries [ Entry.make ~pattern:(Principal.to_string who) Rights.full ]

let grant t ~pattern rights =
  match
    List.find_opt (fun e -> String.equal (pattern_text e) pattern) t.rev_entries
  with
  | Some (e : Entry.t) ->
    set_entry t { e with rights = Rights.union e.rights rights }
  | None -> set_entry t (Entry.make ~pattern rights)

let of_string content =
  let lines = String.split_on_char '\n' content in
  let keep line =
    let trimmed = String.trim line in
    String.length trimmed > 0 && trimmed.[0] <> '#'
  in
  let rec build acc = function
    | [] -> Ok { rev_entries = acc; matcher = None }
    | line :: rest ->
      (match Entry.of_line line with
       | Ok e -> build (e :: acc) rest
       | Error msg -> Error msg)
  in
  build [] (List.filter keep lines)

let of_string_exn content =
  match of_string content with
  | Ok t -> t
  | Error msg -> invalid_arg ("Acl.of_string_exn: " ^ msg)

let to_string t =
  String.concat "" (List.map (fun e -> Entry.to_line e ^ "\n") (entries t))

let equal a b =
  List.length a.rev_entries = List.length b.rev_entries
  && List.for_all2 Entry.equal a.rev_entries b.rev_entries

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." Entry.pp e) (entries t)
