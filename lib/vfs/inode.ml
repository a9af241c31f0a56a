(* Directory tables, keyed by name.  A lookup compares names with
   [String.equal] rather than polymorphic compare; the hash is the
   generic table's, so entries sit in the same buckets. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type kind =
  | Regular
  | Directory
  | Symlink
  | Fifo

type file_store = {
  mutable data : Bytes.t;
  mutable len : int;
  mutable md5 : Digest.t option;  (* of [data[0, len)] *)
  mutable whole : string option;
      (* [data[0, len)] as one string, made by the first read of all of
         it.  [changed] clears both before every change to those bytes. *)
}

type pipe = {
  pbuf : Buffer.t;
  mutable p_read_pos : int;
  mutable p_readers : int;
  mutable p_writers : int;
}

(* A directory's entries, and their sorted names once someone has
   listed them: [dir_add] and [dir_remove], the only functions that
   change the table, each drop the listing. *)
type dir = {
  entries : t Names.t;
  mutable listing : string list option;
}

and payload =
  | File of file_store
  | Dir of dir
  | Link of string
  | Pipe_end of pipe

and t = {
  i_ino : int;
  payload : payload;
  mutable i_mode : int;
  mutable i_uid : int;
  mutable i_nlink : int;
  mutable i_mtime : int64;
  mutable i_ctime : int64;
  mutable i_gen : int;
  mutable i_acl_gen : int;
}

let ino t = t.i_ino
let gen t = t.i_gen
let bump_gen t = t.i_gen <- t.i_gen + 1
let acl_gen t = t.i_acl_gen
let bump_acl_gen t = t.i_acl_gen <- t.i_acl_gen + 1

let kind t =
  match t.payload with
  | File _ -> Regular
  | Dir _ -> Directory
  | Link _ -> Symlink
  | Pipe_end _ -> Fifo

let mode t = t.i_mode
let set_mode t m = t.i_mode <- m

let uid t = t.i_uid
let set_uid t u = t.i_uid <- u

let nlink t = t.i_nlink
let incr_nlink t = t.i_nlink <- t.i_nlink + 1
let decr_nlink t = t.i_nlink <- t.i_nlink - 1

let mtime t = t.i_mtime
let set_mtime t v = t.i_mtime <- v
let ctime t = t.i_ctime
let set_ctime t v = t.i_ctime <- v

let make ~ino ~uid ~mode ~now payload =
  { i_ino = ino; payload; i_mode = mode; i_uid = uid; i_nlink = 1;
    i_mtime = now; i_ctime = now; i_gen = 0; i_acl_gen = 0 }

let make_file ~ino ~uid ~mode ~now =
  make ~ino ~uid ~mode ~now
    (File { data = Bytes.create 0; len = 0; md5 = None; whole = None })

let make_dir ~ino ~uid ~mode ~now =
  (* nlink for directories is left at 1: the simulation does not count
     the "." and ".." pseudo-entries. *)
  make ~ino ~uid ~mode ~now (Dir { entries = Names.create 8; listing = None })

let make_symlink ~ino ~uid ~target ~now =
  make ~ino ~uid ~mode:0o777 ~now (Link target)

let make_pipe ~ino ~now =
  make ~ino ~uid:0 ~mode:0o600 ~now
    (Pipe_end { pbuf = Buffer.create 64; p_read_pos = 0; p_readers = 1; p_writers = 1 })

let store t op =
  match t.payload with
  | File s -> s
  | Dir _ | Link _ | Pipe_end _ -> invalid_arg (op ^ ": not a regular file")

let pipe_of t =
  match t.payload with
  | Pipe_end p -> Some p
  | File _ | Dir _ | Link _ -> None

let pipe_available p = Buffer.length p.pbuf - p.p_read_pos

let pipe_push p data = Buffer.add_string p.pbuf data

let pipe_pull p len =
  let n = min len (pipe_available p) in
  if n <= 0 then ""
  else begin
    let chunk = Buffer.sub p.pbuf p.p_read_pos n in
    p.p_read_pos <- p.p_read_pos + n;
    (* Compact once everything buffered has been consumed. *)
    if p.p_read_pos >= Buffer.length p.pbuf then begin
      Buffer.clear p.pbuf;
      p.p_read_pos <- 0
    end;
    chunk
  end

let pipe_readers p = p.p_readers
let pipe_writers p = p.p_writers
let pipe_add_reader p = p.p_readers <- p.p_readers + 1
let pipe_add_writer p = p.p_writers <- p.p_writers + 1
let pipe_drop_reader p = p.p_readers <- max 0 (p.p_readers - 1)
let pipe_drop_writer p = p.p_writers <- max 0 (p.p_writers - 1)

let size t =
  match t.payload with
  | File s -> s.len
  | Pipe_end p -> pipe_available p
  | Dir _ | Link _ -> 0

let changed s =
  s.md5 <- None;
  s.whole <- None

let whole s =
  match s.whole with
  | Some w -> w
  | None ->
    let w = Bytes.sub_string s.data 0 s.len in
    s.whole <- Some w;
    w

let read t ~off ~len =
  let s = store t "Inode.read" in
  if off >= s.len || len <= 0 then ""
  else if off = 0 && len >= s.len then whole s
  else Bytes.sub_string s.data off (min len (s.len - off))

let ensure_capacity s wanted =
  if Bytes.length s.data < wanted then begin
    let cap = max wanted (max 64 (2 * Bytes.length s.data)) in
    let grown = Bytes.create cap in
    Bytes.blit s.data 0 grown 0 s.len;
    Bytes.fill grown s.len (cap - s.len) '\000';
    s.data <- grown
  end

let write t ~off data =
  if off < 0 then invalid_arg "Inode.write: negative offset";
  let s = store t "Inode.write" in
  changed s;
  let n = String.length data in
  ensure_capacity s (off + n);
  if off > s.len then Bytes.fill s.data s.len (off - s.len) '\000';
  Bytes.blit_string data 0 s.data off n;
  s.len <- max s.len (off + n);
  n

let truncate t ~len =
  if len < 0 then invalid_arg "Inode.truncate: negative length";
  let s = store t "Inode.truncate" in
  changed s;
  if len <= s.len then s.len <- len
  else begin
    ensure_capacity s len;
    Bytes.fill s.data s.len (len - s.len) '\000';
    s.len <- len
  end

let contents t =
  let s = store t "Inode.contents" in
  match s.whole with Some w -> w | None -> Bytes.sub_string s.data 0 s.len

let set_contents t text =
  let s = store t "Inode.set_contents" in
  changed s;
  let n = String.length text in
  ensure_capacity s n;
  Bytes.blit_string text 0 s.data 0 n;
  s.len <- n

let digest t =
  let s = store t "Inode.digest" in
  match s.md5 with
  | Some d -> d
  | None ->
    let d = Digest.subbytes s.data 0 s.len in
    s.md5 <- Some d;
    d

let directory t op =
  match t.payload with
  | Dir d -> d
  | File _ | Link _ | Pipe_end _ -> invalid_arg (op ^ ": not a directory")

let dir_find t name = Names.find_opt (directory t "Inode.dir_find").entries name

let dir_add t name child =
  let d = directory t "Inode.dir_add" in
  d.listing <- None;
  Names.replace d.entries name child

let dir_remove t name =
  let d = directory t "Inode.dir_remove" in
  d.listing <- None;
  Names.remove d.entries name

let dir_entries t =
  let d = directory t "Inode.dir_entries" in
  match d.listing with
  | Some names -> names
  | None ->
    let names =
      Names.fold (fun name _ acc -> name :: acc) d.entries [] |> List.sort String.compare
    in
    d.listing <- Some names;
    names

let dir_is_empty t = Names.length (directory t "Inode.dir_is_empty").entries = 0

let link_target t =
  match t.payload with
  | Link target -> target
  | File _ | Dir _ | Pipe_end _ -> invalid_arg "Inode.link_target: not a symlink"
