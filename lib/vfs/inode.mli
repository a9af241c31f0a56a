(** Inodes: the storage objects of the simulated filesystem.

    An inode is a regular file (a growable byte store), a directory
    (a name → inode table), or a symbolic link (a target path).  Hard
    links are several directory entries sharing one inode; [nlink]
    counts them, and the file store is reclaimed by OCaml's GC when the
    last link and the last open descriptor drop it. *)

type kind =
  | Regular
  | Directory
  | Symlink
  | Fifo  (** A pipe endpoint: never appears in the directory tree. *)

type t

val ino : t -> int
(** Stable inode number, unique within one filesystem. *)

val gen : t -> int
(** Mutation generation, starting at 0.  Meaningful for directories:
    [Fs] bumps it on every namespace- or ACL-relevant change under the
    inode and on every content write to a file in it, so [(ino, gen)]
    pairs validate per-directory content digests without re-reading. *)

val bump_gen : t -> unit

val acl_gen : t -> int
(** ACL generation, starting at 0.  Meaningful for directories: [Fs]
    bumps it only on changes that can alter what the directory's ACL
    file reads as (see {!Fs.dir_inode}), so [(ino, acl_gen)] pairs
    validate cached ACLs across content writes and plain-file churn. *)

val bump_acl_gen : t -> unit

val kind : t -> kind

val mode : t -> int
val set_mode : t -> int -> unit

val uid : t -> int
val set_uid : t -> int -> unit

val nlink : t -> int
val incr_nlink : t -> unit
val decr_nlink : t -> unit

val mtime : t -> int64
val set_mtime : t -> int64 -> unit
val ctime : t -> int64
val set_ctime : t -> int64 -> unit

(** {1 Construction} *)

val make_file : ino:int -> uid:int -> mode:int -> now:int64 -> t
val make_dir : ino:int -> uid:int -> mode:int -> now:int64 -> t
val make_symlink : ino:int -> uid:int -> target:string -> now:int64 -> t
val make_pipe : ino:int -> now:int64 -> t
(** A fresh pipe with one reader and one writer reference. *)

(** {1 Pipes}

    A pipe is an in-kernel byte queue with reader/writer reference
    counts.  [size] of a Fifo is the number of buffered, unread bytes.
    The kernel (not this module) implements blocking: reads on an empty
    pipe with live writers suspend the calling process. *)

type pipe

val pipe_of : t -> pipe option
val pipe_available : pipe -> int
val pipe_push : pipe -> string -> unit
val pipe_pull : pipe -> int -> string
(** Consume up to N buffered bytes (possibly [""]). *)

val pipe_readers : pipe -> int
val pipe_writers : pipe -> int
val pipe_add_reader : pipe -> unit
val pipe_add_writer : pipe -> unit
val pipe_drop_reader : pipe -> unit
val pipe_drop_writer : pipe -> unit

(** {1 Regular files} *)

val size : t -> int
(** Byte length of a regular file; 0 for others. *)

val read : t -> off:int -> len:int -> string
(** [read t ~off ~len] returns up to [len] bytes starting at [off], in
    one copy out of the file; the result is shorter at end-of-file, and
    empty past it.  A read of the whole file ([off = 0], [len] at least
    its size) keeps its copy, and later whole reads return that same
    string ([==]) until the bytes change: {!write}, {!truncate} and
    {!set_contents}, the only functions that change them, each drop it.
    A string once returned never changes.  Raises [Invalid_argument] on
    directories. *)

val write : t -> off:int -> string -> int
(** [write t ~off data] copies all of [data] into the file at [off] in
    one blit, growing the file (zero-filling any gap) and returning the
    byte count.  Raises [Invalid_argument] on non-regular files. *)

val truncate : t -> len:int -> unit
(** Shrink or zero-extend a regular file to [len]. *)

val contents : t -> string
(** The whole contents of a regular file: the string a whole {!read}
    kept, if one is kept, else a fresh copy (which is not kept). *)

val set_contents : t -> string -> unit
(** Replace a regular file's contents. *)

val digest : t -> Digest.t
(** MD5 of a regular file's contents, computed over its store in place
    (no copy) on first use and kept until the bytes change: {!write},
    {!truncate} and {!set_contents}, the only functions that change
    them, each drop it.  Raises [Invalid_argument] on non-regular
    files. *)

(** {1 Directories} *)

val dir_find : t -> string -> t option
(** Child lookup; raises [Invalid_argument] on non-directories. *)

val dir_add : t -> string -> t -> unit
(** Add or replace an entry (callers check for collisions first). *)

val dir_remove : t -> string -> unit

val dir_entries : t -> string list
(** Entry names, sorted.  The directory keeps the sorted list until
    {!dir_add} or {!dir_remove} changes its entries, so listing an
    unchanged directory again costs nothing. *)

val dir_is_empty : t -> bool

(** {1 Symlinks} *)

val link_target : t -> string
(** Raises [Invalid_argument] on non-symlinks. *)
