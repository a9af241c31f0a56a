type scheme =
  | Globus
  | Kerberos
  | Hostname
  | Unix
  | Other of string

type t = {
  scheme : scheme option;
  name : string;
  canonical : string;
}

let scheme_to_string = function
  | Globus -> "globus"
  | Kerberos -> "kerberos"
  | Hostname -> "hostname"
  | Unix -> "unix"
  | Other s -> s

let is_scheme_token s =
  String.length s > 0
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '_' || c = '-') s

let scheme_of_string s =
  match s with
  | "globus" -> Some Globus
  | "kerberos" -> Some Kerberos
  | "hostname" -> Some Hostname
  | "unix" -> Some Unix
  | _ -> if is_scheme_token s then Some (Other s) else None

(* The canonical string is built once, here, for every principal: the
   ACL matcher keys its memo on it at every check. *)
let v scheme name =
  let canonical =
    match scheme with
    | None -> name
    | Some scheme -> scheme_to_string scheme ^ ":" ^ name
  in
  { scheme; name; canonical }

let make ?scheme name =
  if String.length name = 0 then invalid_arg "Principal.make: empty name";
  v scheme name

let of_string s =
  match String.index_opt s ':' with
  | None -> v None s
  | Some i ->
    let prefix = String.sub s 0 i in
    (match scheme_of_string prefix with
     | Some scheme when i + 1 < String.length s ->
       v (Some scheme) (String.sub s (i + 1) (String.length s - i - 1))
     | Some _ | None -> v None s)

let to_string t = t.canonical

let equal a b = String.equal a.canonical b.canonical

let compare a b = String.compare a.canonical b.canonical

let anonymous = v None "anonymous"

let nobody = v (Some Unix) "nobody"

let matches_pattern ~pattern t = Wildcard.literal_matches pattern (to_string t)

let pp ppf t = Format.pp_print_string ppf (to_string t)
