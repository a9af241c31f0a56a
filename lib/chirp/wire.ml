(* {1 Encoding}

   The encoder sizes a message first and then writes every byte of it
   once, into a buffer of exactly that size. *)

(* The decimal width of [n >= 0], by comparison: a field is rarely a
   gigabyte long. *)
let rec digits n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1_000 then 3
  else if n < 10_000 then 4
  else if n < 100_000 then 5
  else if n < 1_000_000 then 6
  else if n < 10_000_000 then 7
  else if n < 100_000_000 then 8
  else if n < 1_000_000_000 then 9
  else 9 + digits (n / 1_000_000_000)

(* The [d] decimal digits of [n >= 0] into [buf] from [pos]. *)
let write_digits buf pos d n =
  let n = ref n in
  for i = pos + d - 1 downto pos do
    Bytes.set buf i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

let field_size n = digits n + 1 + n

let rec size_from acc = function
  | [] -> acc
  | f :: rest -> size_from (acc + field_size (String.length f)) rest

let size fields = size_from 0 fields

let write_header buf pos n =
  let d = digits n in
  write_digits buf pos d n;
  Bytes.set buf (pos + d) ':';
  pos + d + 1

let rec write buf pos = function
  | [] -> pos
  | f :: rest ->
    let n = String.length f in
    let at = write_header buf pos n in
    Bytes.blit_string f 0 buf at n;
    write buf (at + n) rest

let encode fields =
  let buf = Bytes.create (size fields) in
  ignore (write buf 0 fields);
  Bytes.unsafe_to_string buf

(* {1 Decoding}

   One parser, over a range of a string.  A length is read in place and
   accepted only in the form [encode] writes it: ["0"], or a nonzero
   digit followed by digits, no larger than what is left of the range.
   Anything else goes to [refuse], off the hot path, which names the
   fault.  A server sends the message back in its [bad request] reply,
   so the text for each fault stays fixed. *)

let is_digit c = c >= '0' && c <= '9'

let refuse s i stop =
  let rec colon j =
    if j >= stop then None else if s.[j] = ':' then Some j else colon (j + 1)
  in
  match colon i with
  | None -> Error "missing ':' after field length"
  | Some j ->
    let text = String.sub s i (j - i) in
    (match int_of_string_opt text with
     | None -> Error (Printf.sprintf "bad field length %S" text)
     | Some len when len < 0 -> Error "negative field length"
     | Some len when len > stop - (j + 1) -> Error "truncated field"
     | Some _ -> Error (Printf.sprintf "non-canonical field length %S" text))

(* The field whose header starts at [i]: its data's start and length. *)
let field s i stop =
  let room = stop - i in
  let rec scan k len =
    if k >= stop then refuse s i stop
    else
      let c = s.[k] in
      if c = ':' && k > i then
        if len > stop - (k + 1) then Error "truncated field" else Ok (k + 1, len)
      else if is_digit c && not (k > i && s.[i] = '0') then
        let len = (len * 10) + (Char.code c - 48) in
        if len > room then refuse s i stop else scan (k + 1) len
      else refuse s i stop
  in
  scan i 0

let fold_fields s ~pos ~len f init =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Wire: range outside the string";
  let stop = pos + len in
  let rec go i acc =
    if i >= stop then Ok acc
    else
      match field s i stop with
      | Error e -> Error e
      | Ok (at, n) -> go (at + n) (f acc at n)
  in
  go pos init

let spans s ~pos ~len =
  Result.map List.rev (fold_fields s ~pos ~len (fun acc at n -> (at, n) :: acc) [])

let decode_range s ~pos ~len =
  Result.map List.rev
    (fold_fields s ~pos ~len (fun acc at n -> String.sub s at n :: acc) [])

let decode s = decode_range s ~pos:0 ~len:(String.length s)

(* [string_of_int n], its digits written straight into the string.
   [min_int] alone has no positive magnitude to write. *)
let encode_int n =
  if n = min_int then string_of_int n
  else
    let sign = if n < 0 then 1 else 0 in
    let m = abs n in
    let d = digits m in
    let buf = Bytes.create (sign + d) in
    if sign = 1 then Bytes.set buf 0 '-';
    write_digits buf sign d m;
    Bytes.unsafe_to_string buf

let encode_int64 v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then encode_int n else Int64.to_string v

let decode_int s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S" s)
