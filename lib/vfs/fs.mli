(** The simulated filesystem: permission-checked operations over a tree
    of {!Inode.t}.

    All paths given to this module are absolute; the kernel joins
    process-relative paths against the current working directory first.
    Symbolic links are resolved with a loop limit; [".."] is resolved
    against the {e real} parent encountered during the walk, including
    through symlink targets that contain [".."].

    Every operation checks classic Unix permissions for the acting [uid]
    (search on traversed directories, read/write on the object as
    appropriate).  Identity-box ACL checks are layered {e above} this
    module by the interposition agent. *)

type t

type stat = {
  st_ino : int;
  st_kind : Inode.kind;
  st_mode : int;
  st_uid : int;
  st_nlink : int;
  st_size : int;
  st_mtime : int64;
  st_ctime : int64;
}

type open_flags = {
  rd : bool;  (** Open for reading. *)
  wr : bool;  (** Open for writing. *)
  creat : bool;  (** Create if absent (needs write on the parent). *)
  excl : bool;  (** With [creat]: fail [EEXIST] if present. *)
  trunc : bool;  (** Truncate to zero on open for write. *)
  append : bool;  (** Writes go to end-of-file. *)
}

val rdonly : open_flags
val wronly_create : open_flags
(** [creat + trunc] write flags, the common "put a file" shape. *)

val symlink_limit : int
(** The symlink-expansion budget shared by {e every} resolver — the
    kernel-side walk, the [O_CREAT] dangling-link expansion, and the
    supervisor-side canonicalisation in the enforcement engine.  One
    constant, so the box's verdict and the kernel's behaviour agree on
    when [ELOOP] fires. *)

val create : ?clock:(unit -> int64) -> unit -> t
(** A fresh filesystem containing only a root directory owned by uid 0
    with mode [0o755].  [clock] supplies mtime values (defaults to a
    constant 0 clock). *)

val root : t -> Inode.t

(** {1 Mutation generations}

    Monotonic counters that let caches revalidate without re-walking or
    re-reading anything.  Two are global, two are per directory:

    - {!generation} is bumped by every namespace- or ACL-relevant
      mutation: create, unlink, rmdir, mkdir, link, symlink, rename,
      chmod, chown, and a successful open-for-write that lands on the
      {!watch_basename} name.  Whole-path name caches key on it.
    - {!policy_generation} is bumped by the same calls, with one
      exception: a regular file (or fifo) created, unlinked or renamed,
      when neither its old nor its new name is the watched basename and
      it replaces nothing or another regular file.  Such a change cannot
      move an ACL verdict — the ACL of the directory holding a file
      governs it, whether or not the file exists — so the compiled
      policy program keys on this counter and survives plain-file
      churn.  Hard links, renames that move or replace a directory or a
      symlink, and every create, write, unlink or rename of the watched
      name (the ACL file), still bump it.
    - A directory's [(ino, gen)] token ({!dir_token}) moves with every
      mutation that bumps {!generation} there, and also on a successful
      open-for-write of any {e other} existing file in it: the
      directory's content is about to change (anti-entropy digests over
      file contents must revalidate) but its namespace is not, so
      neither global counter moves.
    - A directory's [(ino, acl_gen)] token ({!Inode.ino} and
      {!Inode.acl_gen} of its {!dir_inode}) moves only when what its
      ACL file reads as can change: a create, unlink, mkdir, rmdir or
      rename (either end) of the entry with the watched name in it; an
      open-for-write that lands on that entry after the final symlink
      chain is followed; and a chmod or chown of any entry in it (the
      entry reached, symlinks followed).  Each of these bumps
      the three counters above as well.  Content writes to other files
      and every other namespace change leave it alone.  A directory
      that is moved, replaced or re-pointed through a symlink changes
      the [ino] half instead.

    One case bumps nothing: a write through a descriptor opened before
    a rename made its file the ACL file. *)

val generation : t -> int
(** The global mutation generation (starts at 0). *)

val policy_generation : t -> int
(** The policy generation (starts at 0): {!generation} minus the
    plain-file creates, unlinks and renames described above. *)

val dir_token : t -> string -> (int * int) option
(** [(ino, gen)] of the directory the path resolves to (as root,
    following symlinks), or [None] when it does not resolve to a
    directory.  Host-side: performs no simulated syscalls. *)

val dir_inode : t -> string -> Inode.t option
(** The directory the path resolves to, resolved as {!dir_token}
    resolves it.  Its [(ino, acl_gen)] validates a cached copy of that
    directory's ACL file.  While {!generation} stands still, the same
    path resolves to the same inode, and its [acl_gen] stays put: every
    change that could move either bumps {!generation}. *)

val watch_basename : t -> string -> unit
(** Register the ACL file's basename.  Namespace changes to an entry of
    that name, and opens for write that land on one, are ACL changes
    of the containing directory.  File contents flow through
    descriptors, bypassing this module, so the bump happens at open
    time — sound here because opens and writes never interleave with
    checks in the single-threaded simulation. *)

val make_pipe : t -> Inode.t
(** A fresh pipe inode (allocated from this filesystem's inode space,
    never linked into the tree). *)

type 'a r := ('a, Errno.t) result

val resolve : t -> uid:int -> string -> Inode.t r
(** Full resolution, following every symlink.  A successful answer is
    kept in the dentry cache (below). *)

val resolve_no_follow : t -> uid:int -> string -> Inode.t r
(** Resolution that does not follow a final symlink ([lstat] flavour),
    cached as {!resolve} is. *)

(** {1 The dentry cache}

    {!resolve} and {!resolve_no_follow}, and so every operation here
    that names an existing object, answer a path from a cache of
    successful resolutions keyed by (uid, follow-last, path).  An entry
    holds while {!generation} stands still: every entry added, removed
    or renamed, every symlink created and every chmod or chown moves
    it, a symlink's target never changes, and a content write changes
    no entry.  The cache keeps the entries of one generation only, at
    most {!dentry_capacity} of them, and is emptied when the
    generation moves or when it is full.  Failures are not kept.  It
    is host-side bookkeeping with no simulated cost: a syscall is
    charged the same whether the cache or the scan answers it. *)

val dentry_capacity : int
(** 8,192 entries, the bound of the enforcement engine's name tables. *)

type dentry_stats = {
  entries : int;  (** Held now. *)
  hits : int;  (** Resolutions the cache answered. *)
  misses : int;  (** Resolutions scanned (failures included). *)
  flushes : int;  (** Times a non-empty cache was emptied. *)
}

val dentry_stats : t -> dentry_stats
(** Counts since {!create}. *)

val resolve_uncached : t -> uid:int -> follow_last:bool -> string -> Inode.t r
(** The scan the cache keeps answers of: {!resolve} is
    [resolve_uncached ~follow_last:true] and {!resolve_no_follow}
    [~follow_last:false], answer for answer.  Touches no cache. *)

val resolve_parent : t -> uid:int -> string -> (Inode.t * string) r
(** [(parent directory inode, final component)] for a path that need not
    exist yet.  Fails [EINVAL] on ["/"], ["."] or [".."] finals. *)

val canonical_parents : t -> string -> string * int
(** [canonical_parents t path] resolves every {e ancestor} symlink of
    [path] as root, leaving the final component alone, and returns the
    path the object's directory really is together with the number of
    steps taken: one per non-final component visited, counting each
    [".."] and each component a symlink target adds.  [path] is first
    normalized lexically ({!Path.normalize}); a [".."] that a symlink
    target brings in is collapsed against the canonical prefix, which is
    its true parent.  Expansions share {!symlink_limit}; past it the
    remaining components are kept as they are.  A name that does not
    resolve is kept as it is too, and so is everything below it.

    The result is a normal path ({!Path.is_normal}).  When no ancestor
    is a symlink it is the normalized input itself, and the step count
    is its component count minus one (zero for ["/"]).  The walk keeps
    a cursor on the directory reached so far, so each step is one
    lookup, not a walk from ["/"].  Host-side: performs no simulated
    syscalls; a caller that models the walk charges the steps. *)

val expand_link : t -> link:string -> string -> string * int
(** [expand_link t ~link target] is where the symlink at [link] with
    [target] points, and the steps taken, as {!canonical_parents}
    counts them.  It walks the components of [link]'s directory (none
    for an absolute target) followed by [target]'s, so a [".."] in the
    target pops to the real parent, as the kernel's resolution does —
    never lexically.  The one expansion for checks, ACL-write
    bookkeeping and a create through a dangling link. *)

val open_file : t -> uid:int -> flags:open_flags -> mode:int -> string -> Inode.t r
(** Open (and possibly create) a regular file, enforcing permissions. *)

val mkdir : t -> uid:int -> mode:int -> string -> Inode.t r
val rmdir : t -> uid:int -> string -> unit r
val unlink : t -> uid:int -> string -> unit r
val link : t -> uid:int -> target:string -> string -> unit r
(** Hard link: [link ~target path] makes [path] name the same inode as
    [target].  Directories cannot be hard-linked ([EPERM]), and neither
    can a file whose old or new name is the {!watch_basename} name: the
    ACL file's only name is its own, so every write to it is seen. *)

val symlink : t -> uid:int -> target:string -> string -> unit r
(** [symlink ~target path]: [target] is stored verbatim.  A link named
    with the {!watch_basename} name fails [EPERM]: the ACL file is never
    a symlink, so a write to it always lands on its own entry. *)

val readlink : t -> uid:int -> string -> string r

val rename : t -> uid:int -> src:string -> dst:string -> unit r
(** POSIX rename; moving a file with more than one link, or a symlink,
    onto the {!watch_basename} name fails [EPERM] (see {!link} and
    {!symlink}). *)

val readdir : t -> uid:int -> string -> string list r
val stat : t -> uid:int -> string -> stat r
val lstat : t -> uid:int -> string -> stat r
val fstat : Inode.t -> stat
val chmod : t -> uid:int -> mode:int -> string -> unit r
val chown : t -> uid:int -> owner:int -> string -> unit r
val exists : t -> uid:int -> string -> bool
(** True when {!resolve} succeeds (follows symlinks). *)

(** {1 Convenience for tests and fixtures} *)

val write_file : t -> uid:int -> ?mode:int -> string -> string -> unit r
(** Create a file, or replace an existing one's contents, with the
    given contents. *)

val read_file : t -> uid:int -> string -> string r
(** Whole-file read. *)

val digest_file : t -> uid:int -> string -> Digest.t r
(** [Digest.string] of what {!read_file} would return, with the same
    permission walk and errors, without copying the file: the inode
    keeps the MD5 until its bytes change ({!Inode.digest}). *)

val mkdir_p : t -> uid:int -> ?mode:int -> string -> unit r
(** Create every missing directory along the path. *)
