type access =
  | R
  | W
  | X

let bit_of = function R -> 4 | W -> 2 | X -> 1

let check ~uid ~owner ~mode access =
  let b = bit_of access in
  if uid = 0 then
    (* Root bypasses permission checks, except execute requires at least
       one execute bit somewhere, as on Linux. *)
    (match access with
     | X -> mode land 0o111 <> 0
     | R | W -> true)
  else
    let cls = if uid = owner then (mode lsr 6) land 7 else mode land 7 in
    cls land b <> 0

let default_file_mode = 0o644

let default_dir_mode = 0o755

let to_string ~mode =
  let triple shift =
    let bits = (mode lsr shift) land 7 in
    let c b ch = if bits land b <> 0 then ch else '-' in
    Printf.sprintf "%c%c%c" (c 4 'r') (c 2 'w') (c 1 'x')
  in
  triple 6 ^ triple 3 ^ triple 0

let pp ppf mode = Format.pp_print_string ppf (to_string ~mode)
