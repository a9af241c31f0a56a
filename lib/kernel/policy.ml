(* Compiled policy bytecode: the in-kernel decision program.

   A program is a frozen snapshot of the box's reachable ACL universe,
   compiled off the hot path and evaluated at syscall entry without
   touching the policy interpreter.  The layout is three perfect-hash
   tables (directory -> ACL id, object path -> governing ACL id, and
   (ACL id, principal) -> rights mask for literal entries) plus a flat
   instruction stream holding one wildcard block per ACL.  Perfect
   means collision-free by construction: every probe is one hash, one
   index, one string compare — never a chain walk.

   The VM is deliberately tiny.  Two opcodes:

     RET              end of block
     WILD pat mask    if the pattern (pool index [pat]) globs the
                      principal, OR [mask] into the accumulator

   Every loop in evaluation is bounded: table probes are O(1), block
   walks stop at RET (whose presence within [max_block] instructions
   the verifier proves), and glob matching runs on explicit fuel.
   Anything out of bounds, out of fuel or simply absent from the
   tables evaluates to [Unknown] — the caller falls back to the full
   interpreter.  The program can fail closed to the interpreter; it
   can never fail open. *)

type verdict = Allow | Deny | Unknown

type t = {
  p_gen : int;  (* VFS policy generation the snapshot was taken at *)
  p_pool : string array;  (* interned strings: paths, principals, patterns *)
  p_code : int array;  (* flat stream, [instr_width] ints per instruction *)
  p_acl_off : int array;  (* ACL id -> offset of its wildcard block *)
  (* directory table: lexical dir path -> ACL id, -1 = known, not compiled *)
  p_dir_seed : int;
  p_dir_key : int array;  (* pool index of the key, -1 = empty slot *)
  p_dir_val : int array;
  (* path table: lexical object path -> governing ACL id (or -1) *)
  p_path_seed : int;
  p_path_key : int array;
  p_path_val : int array;
  (* exact table: (ACL id, principal) -> union mask of literal entries *)
  p_ex_seed : int;
  p_ex_key : int array;  (* pool index of the principal, -1 = empty slot *)
  p_ex_acl : int array;
  p_ex_mask : int array;
}

let generation p = p.p_gen

(* --- opcodes --------------------------------------------------------- *)

let op_ret = 0
let op_wild = 1
let instr_width = 3

(* --- bounds ----------------------------------------------------------

   The verifier's size budget.  Small enough that a program is always a
   bounded, auditable object; large enough for any workload this
   simulation runs.  A universe that does not fit is simply not
   compiled — the interpreter serves it. *)

let max_pool = 65_536
let max_string = 512
let max_pattern = 256
let max_code = 65_536 * instr_width
let max_table = 262_144
let max_block = 1_024  (* instructions per ACL wildcard block *)

(* Fuel for one glob match.  A backtracking glob visits at most
   (pattern length + 1) * (subject length + 1) states; with patterns
   capped at [max_pattern] by the verifier, this covers subjects up to
   ~1000 chars.  A longer principal burns the fuel and evaluates to
   [Unknown] — fail closed, never open. *)
let glob_fuel = (max_pattern + 1) * 1_024

(* --- hashing ---------------------------------------------------------

   FNV-1a, seeded, clamped positive.  The seed is what the compiler
   retries until the key set is collision-free, making the tables
   "perfect" without any probe sequence at evaluation time. *)

let hash ~seed s =
  let h = ref (0x811c9dc5 lxor seed) in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let dir_slot ~seed ~len s = hash ~seed s mod len
let path_slot = dir_slot

(* The exact table keys a pair: mix the ACL id into the principal's
   hash with a distinct odd multiplier. *)
let ex_slot ~seed ~len ~acl s =
  ((hash ~seed s + (acl * 0x9E3779B1)) land 0x3FFFFFFF) mod len

(* --- probes ----------------------------------------------------------

   Each returns the stored value, or [None] when the key is absent.
   One hash, one slot read, one string compare. *)

let probe_str pool ~seed key_arr val_arr s =
  let len = Array.length key_arr in
  if len = 0 then None
  else
    let i = dir_slot ~seed ~len s in
    let k = key_arr.(i) in
    if k >= 0 && String.equal pool.(k) s then Some val_arr.(i) else None

let probe_exact p ~acl principal =
  let len = Array.length p.p_ex_key in
  if len = 0 then None
  else
    let i = ex_slot ~seed:p.p_ex_seed ~len ~acl principal in
    let k = p.p_ex_key.(i) in
    if k >= 0 && p.p_ex_acl.(i) = acl && String.equal p.p_pool.(k) principal
    then Some p.p_ex_mask.(i)
    else None

(* --- the bounded glob ------------------------------------------------

   Standard two-pointer glob with a single backtrack point ('*' resumes
   one subject character later), under an explicit fuel counter.  '?'
   matches any one character; '*' any run, including empty. *)

type glob_result = Matched | Unmatched | Out_of_fuel

let glob ~fuel pat s =
  let pl = String.length pat and sl = String.length s in
  let fuel = ref fuel in
  let p = ref 0 and i = ref 0 in
  let star_p = ref (-1) and star_i = ref 0 in
  let res = ref None in
  while !res = None do
    decr fuel;
    if !fuel < 0 then res := Some Out_of_fuel
    else if !i < sl then begin
      if !p < pl && (pat.[!p] = '?' || pat.[!p] = s.[!i]) then begin
        incr p;
        incr i
      end
      else if !p < pl && pat.[!p] = '*' then begin
        star_p := !p;
        star_i := !i;
        incr p
      end
      else if !star_p >= 0 then begin
        (* Backtrack: the last '*' absorbs one more subject char. *)
        p := !star_p + 1;
        incr star_i;
        i := !star_i
      end
      else res := Some Unmatched
    end
    else begin
      (* Subject consumed: only trailing stars may remain. *)
      while !p < pl && pat.[!p] = '*' do
        incr p
      done;
      res := Some (if !p = pl then Matched else Unmatched)
    end
  done;
  Option.get !res

(* --- evaluation ------------------------------------------------------ *)

(* The rights mask a compiled ACL grants [principal]: the exact-table
   entry (union of all literal entries that name the principal) OR'd
   with every matching wildcard entry in the ACL's code block.  [None]
   when a glob ran out of fuel. *)
let acl_mask p ~acl principal =
  let base = match probe_exact p ~acl principal with Some m -> m | None -> 0 in
  let mask = ref base in
  let pc = ref p.p_acl_off.(acl) in
  let res = ref None in
  while !res = None do
    match p.p_code.(!pc) with
    | op when op = op_ret -> res := Some (Some !mask)
    | op when op = op_wild ->
      let pat = p.p_pool.(p.p_code.(!pc + 1)) in
      let m = p.p_code.(!pc + 2) in
      (match glob ~fuel:glob_fuel pat principal with
       | Matched ->
         mask := !mask lor m;
         pc := !pc + instr_width
       | Unmatched -> pc := !pc + instr_width
       | Out_of_fuel -> res := Some None)
    | _ -> res := Some None
  done;
  Option.get !res

let decide p ~acl ~principal ~right_bit =
  if acl < 0 then Unknown
  else
    match acl_mask p ~acl principal with
    | None -> Unknown
    | Some m -> if m land (1 lsl right_bit) <> 0 then Allow else Deny

(* A path the program can answer for: absolute, already normalized, no
   "." / ".." / empty components.  Anything else must go through the
   interpreter's canonicalization (lexical ".." collapse diverges from
   resolution through symlinked ancestors). *)
let plain_abs path =
  let n = String.length path in
  if n = 0 || path.[0] <> '/' then false
  else if n = 1 then true
  else begin
    let ok = ref (path.[n - 1] <> '/') in
    let comp_start = ref 1 in
    let check_comp finish =
      let len = finish - !comp_start in
      if len = 0 then ok := false
      else if len = 1 && path.[!comp_start] = '.' then ok := false
      else if len = 2 && path.[!comp_start] = '.' && path.[!comp_start + 1] = '.'
      then ok := false
    in
    for i = 1 to n - 1 do
      if path.[i] = '/' then begin
        check_comp i;
        comp_start := i + 1
      end
    done;
    if !ok then check_comp n;
    !ok
  end

(* Lexical dirname of a plain absolute path. *)
let parent_of path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub path 0 i

let eval_in_dir p ~principal ~dir ~right_bit =
  if not (plain_abs dir) then Unknown
  else
    match probe_str p.p_pool ~seed:p.p_dir_seed p.p_dir_key p.p_dir_val dir with
    | Some acl -> decide p ~acl ~principal ~right_bit
    | None -> Unknown

let eval_object p ~principal ~path ~right_bit =
  if not (plain_abs path) then Unknown
  else
    match
      probe_str p.p_pool ~seed:p.p_path_seed p.p_path_key p.p_path_val path
    with
    | Some acl -> decide p ~acl ~principal ~right_bit
    | None ->
      (* Unknown object: if its lexical parent is a compiled directory,
         the governing ACL is that directory's.  At this policy
         generation every directory and symlink is in the path table, so
         the object is absent or a plain file created since — governed by
         the parent's ACL either way, a pure function of it. *)
      (match
         probe_str p.p_pool ~seed:p.p_dir_seed p.p_dir_key p.p_dir_val
           (parent_of path)
       with
       | Some acl -> decide p ~acl ~principal ~right_bit
       | None -> Unknown)

(* --- structural verification ----------------------------------------

   Every accepted program satisfies: all sizes within budget, all pool
   references in range, every ACL block RET-terminated within
   [max_block] instructions with only known opcodes, every table slot
   either empty or placed exactly where its key hashes — which both
   proves the perfect-hash property and pins probe termination to a
   single slot read.  Together with the fuel-bounded glob this is the
   termination proof: no loop in {!eval_object} / {!eval_in_dir} can
   exceed a verified static bound. *)

let check_program p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let npool = Array.length p.p_pool in
  let nacl = Array.length p.p_acl_off in
  let* () =
    if npool > max_pool then err "pool too large: %d" npool else Ok ()
  in
  let* () =
    if Array.length p.p_code > max_code then
      err "code too large: %d" (Array.length p.p_code)
    else Ok ()
  in
  let* () =
    let bad = ref None in
    Array.iteri
      (fun i s ->
        if !bad = None && String.length s > max_string then bad := Some i)
      p.p_pool;
    match !bad with
    | Some i -> err "pool string %d exceeds %d bytes" i max_string
    | None -> Ok ()
  in
  (* Each ACL's block: in range, known opcodes, RET within max_block,
     wildcard operands in range and short enough for the fuel budget. *)
  let rec check_block acl pc steps =
    if steps > max_block then err "acl %d: no RET within %d instrs" acl max_block
    else if pc < 0 || pc >= Array.length p.p_code then
      err "acl %d: pc out of range" acl
    else
      match p.p_code.(pc) with
      | op when op = op_ret -> Ok ()
      | op when op = op_wild ->
        if pc + 2 >= Array.length p.p_code then err "acl %d: truncated WILD" acl
        else
          let pat = p.p_code.(pc + 1) in
          let mask = p.p_code.(pc + 2) in
          if pat < 0 || pat >= npool then err "acl %d: bad pattern index" acl
          else if String.length p.p_pool.(pat) > max_pattern then
            err "acl %d: pattern exceeds %d chars" acl max_pattern
          else if mask < 0 then err "acl %d: negative mask" acl
          else check_block acl (pc + instr_width) (steps + 1)
      | op -> err "acl %d: unknown opcode %d" acl op
  in
  let* () =
    let rec go acl =
      if acl >= nacl then Ok ()
      else
        let off = p.p_acl_off.(acl) in
        if off < 0 || off >= Array.length p.p_code then
          err "acl %d: offset out of range" acl
        else
          let* () = check_block acl off 0 in
          go (acl + 1)
    in
    go 0
  in
  (* A string table: lengths agree, within budget, slots empty or
     perfectly placed, values within the ACL range. *)
  let check_table name ~seed key_arr val_arr =
    let len = Array.length key_arr in
    if len <> Array.length val_arr then err "%s: length mismatch" name
    else if len > max_table then err "%s: too large: %d" name len
    else begin
      let bad = ref None in
      Array.iteri
        (fun i k ->
          if !bad = None then
            if k = -1 then begin
              if val_arr.(i) <> -1 then
                bad := Some (Printf.sprintf "%s: slot %d: value without key" name i)
            end
            else if k < 0 || k >= npool then
              bad := Some (Printf.sprintf "%s: slot %d: bad pool index" name i)
            else if dir_slot ~seed ~len p.p_pool.(k) <> i then
              bad := Some (Printf.sprintf "%s: slot %d: misplaced key" name i)
            else if val_arr.(i) < -1 || val_arr.(i) >= nacl then
              bad := Some (Printf.sprintf "%s: slot %d: bad acl id" name i))
        key_arr;
      match !bad with Some m -> Error m | None -> Ok ()
    end
  in
  let* () = check_table "dir" ~seed:p.p_dir_seed p.p_dir_key p.p_dir_val in
  let* () = check_table "path" ~seed:p.p_path_seed p.p_path_key p.p_path_val in
  (* The exact table additionally carries the ACL id in the key. *)
  let* () =
    let len = Array.length p.p_ex_key in
    if len <> Array.length p.p_ex_acl || len <> Array.length p.p_ex_mask then
      err "exact: length mismatch"
    else if len > max_table then err "exact: too large: %d" len
    else begin
      let bad = ref None in
      Array.iteri
        (fun i k ->
          if !bad = None then
            if k = -1 then ()
            else if k < 0 || k >= npool then
              bad := Some (Printf.sprintf "exact: slot %d: bad pool index" i)
            else if p.p_ex_acl.(i) < 0 || p.p_ex_acl.(i) >= nacl then
              bad := Some (Printf.sprintf "exact: slot %d: bad acl id" i)
            else if
              ex_slot ~seed:p.p_ex_seed ~len ~acl:p.p_ex_acl.(i) p.p_pool.(k)
              <> i
            then bad := Some (Printf.sprintf "exact: slot %d: misplaced key" i)
            else if p.p_ex_mask.(i) < 0 then
              bad := Some (Printf.sprintf "exact: slot %d: negative mask" i))
        p.p_ex_key;
      match !bad with Some m -> Error m | None -> Ok ()
    end
  in
  Ok ()

(* --- introspection --------------------------------------------------- *)

let size p =
  Array.length p.p_code
  + Array.length p.p_dir_key
  + Array.length p.p_path_key
  + Array.length p.p_ex_key

let stats p =
  let live a = Array.fold_left (fun n k -> if k >= 0 then n + 1 else n) 0 a in
  Printf.sprintf
    "gen=%d pool=%d acls=%d code=%d dirs=%d/%d paths=%d/%d exact=%d/%d"
    p.p_gen (Array.length p.p_pool) (Array.length p.p_acl_off)
    (Array.length p.p_code / instr_width)
    (live p.p_dir_key) (Array.length p.p_dir_key)
    (live p.p_path_key) (Array.length p.p_path_key)
    (live p.p_ex_key) (Array.length p.p_ex_key)
