(* Points per member on the circle. *)
let vnodes = 64

type t = {
  rg_nodes : string list;  (* sorted, unique *)
  points : (int64 * string) array;  (* sorted by (unsigned hash, name) *)
}

(* First 8 bytes of the MD5, big-endian, treated as an unsigned 64-bit
   position on the circle.  Deterministic across runs and processes —
   [Hashtbl.hash] would be too, but MD5 mixes far better over the short
   similar strings (node names, path prefixes) we hash. *)
let key_hash s =
  let d = Digest.string s in
  let b = Bytes.of_string d in
  Bytes.get_int64_be b 0

let compare_points (h1, n1) (h2, n2) =
  match Int64.unsigned_compare h1 h2 with
  | 0 -> String.compare n1 n2
  | c -> c

let create names =
  let nodes = List.sort_uniq String.compare names in
  let points =
    Array.of_list
      (List.concat_map
         (fun node ->
           List.init vnodes (fun i ->
               (key_hash (Printf.sprintf "%s#%d" node i), node)))
         nodes)
  in
  Array.sort compare_points points;
  { rg_nodes = nodes; points }

let nodes t = t.rg_nodes
let is_empty t = t.rg_nodes = []

let add t node =
  if List.mem node t.rg_nodes then t
  else create (node :: t.rg_nodes)

let remove t node =
  if List.mem node t.rg_nodes then
    create (List.filter (fun n -> not (String.equal n node)) t.rg_nodes)
  else t

(* Index of the first point at or clockwise from [h], wrapping. *)
let first_at_or_after t h =
  let n = Array.length t.points in
  let rec bsearch lo hi =
    (* invariant: points.(lo-1) < h <= points.(hi), hi may be n *)
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      let mh, _ = t.points.(mid) in
      if Int64.unsigned_compare mh h < 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  let i = bsearch 0 n in
  if i = n then 0 else i

let lookup t key =
  if is_empty t then None
  else
    let i = first_at_or_after t (key_hash key) in
    Some (snd t.points.(i))

let successors t key n =
  if is_empty t || n <= 0 then []
  else begin
    let len = Array.length t.points in
    let start = first_at_or_after t (key_hash key) in
    let want = min n (List.length t.rg_nodes) in
    let rec collect i seen acc =
      if List.length acc >= want || i >= len then List.rev acc
      else
        let _, node = t.points.((start + i) mod len) in
        if List.mem node seen then collect (i + 1) seen acc
        else collect (i + 1) (node :: seen) (node :: acc)
    in
    collect 0 [] []
  end

let owners_equal a b key n =
  List.equal String.equal (successors a key n) (successors b key n)
