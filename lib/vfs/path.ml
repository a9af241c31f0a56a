let root = "/"

let is_absolute p = String.length p > 0 && p.[0] = '/'

let rec component_end p i =
  if i >= String.length p || p.[i] = '/' then i else component_end p (i + 1)

(* The component p.[i .. j-1] is empty, "." or "..". *)
let is_dot_or_empty p i j =
  let len = j - i in
  len = 0 || (p.[i] = '.' && (len = 1 || (len = 2 && p.[i + 1] = '.')))

(* [i] is the index just past a '/'. *)
let rec normal_from p n i =
  let j = component_end p i in
  (not (is_dot_or_empty p i j)) && (j = n || normal_from p n (j + 1))

let is_normal p =
  let n = String.length p in
  n > 0 && p.[0] = '/' && (n = 1 || normal_from p n 1)

(* Components are collected right to left, so the list comes out in
   order without a reversal.  [j] is the end of the component being
   scanned, [i] the byte under inspection. *)
let components p =
  let keep acc i j =
    if j = i || (j - i = 1 && p.[i] = '.') then acc else String.sub p i (j - i) :: acc
  in
  let rec go acc j i =
    if i < 0 then keep acc 0 j
    else if p.[i] = '/' then go (keep acc (i + 1) j) i (i - 1)
    else go acc j (i - 1)
  in
  let n = String.length p in
  go [] n (n - 1)

let rec count_from p n i acc =
  if i >= n then acc
  else
    let j = component_end p i in
    let counted = j > i && not (j - i = 1 && p.[i] = '.') in
    count_from p n (j + 1) (if counted then acc + 1 else acc)

let component_count p = count_from p (String.length p) 0 0

let of_components = function
  | [] -> root
  | comps -> "/" ^ String.concat "/" comps

let normalize_list p =
  let resolve acc comp =
    match comp with
    | ".." -> (match acc with [] -> [] | _ :: rest -> rest)
    | c -> c :: acc
  in
  components p |> List.fold_left resolve [] |> List.rev |> of_components

let normalize p = if is_normal p then p else normalize_list p

let join base p =
  if is_absolute p then normalize p
  else if String.equal base root then normalize ("/" ^ p)
  else normalize (base ^ "/" ^ p)

let basename p =
  if is_normal p then
    if String.equal p root then root
    else
      let k = String.rindex p '/' in
      String.sub p (k + 1) (String.length p - k - 1)
  else
    match List.rev (components p) with
    | [] -> root
    | last :: _ -> last

let dirname p =
  if is_normal p then
    match String.rindex p '/' with 0 -> root | k -> String.sub p 0 k
  else
    match List.rev (components p) with
    | [] | [ _ ] -> root
    | _ :: rest -> of_components (List.rev rest)

let split p =
  match components p with
  | [] -> None
  | comps ->
    let rev = List.rev comps in
    (match rev with
     | [] -> None
     | last :: parents -> Some (of_components (List.rev parents), last))

(* Between normal paths, a prefix is a leading substring that ends the
   path or stops at a '/'; other paths are compared component by
   component. *)
let is_prefix ~prefix p =
  if is_normal prefix && is_normal p then
    let n = String.length prefix in
    String.equal prefix root
    || (String.starts_with ~prefix p && (String.length p = n || p.[n] = '/'))
  else
    let rec go pre cs =
      match (pre, cs) with
      | [], _ -> true
      | _ :: _, [] -> false
      | a :: pre', b :: cs' -> String.equal a b && go pre' cs'
    in
    go (components prefix) (components p)

let strip_prefix ~prefix p =
  let rec go pre cs =
    match (pre, cs) with
    | [], rest -> Some (of_components rest)
    | _ :: _, [] -> None
    | a :: pre', b :: cs' -> if String.equal a b then go pre' cs' else None
  in
  go (components prefix) (components p)

let pp ppf p = Format.pp_print_string ppf p
