(* {1 Encoding}

   The encoder sizes a message first and then writes every byte of it
   once, into a buffer of exactly that size. *)

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let field_size n = digits n + 1 + n

let size fields =
  List.fold_left (fun acc f -> acc + field_size (String.length f)) 0 fields

let write_header buf pos n =
  let d = digits n in
  let rec put i n =
    if i >= 0 then begin
      Bytes.set buf (pos + i) (Char.chr (48 + (n mod 10)));
      put (i - 1) (n / 10)
    end
  in
  put (d - 1) n;
  Bytes.set buf (pos + d) ':';
  pos + d + 1

let write buf pos fields =
  List.fold_left
    (fun pos f ->
      let n = String.length f in
      let at = write_header buf pos n in
      Bytes.blit_string f 0 buf at n;
      at + n)
    pos fields

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

let encode_int = string_of_int

let decode_int s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S" s)
