module Kernel = Idbox_kernel.Kernel
module View = Idbox_kernel.View
module Fd_table = Idbox_kernel.Fd_table
module Syscall = Idbox_kernel.Syscall
module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode

type t = {
  kernel : Kernel.t;
  ch_path : string;
  inode : Inode.t;
  size : int;
  mutable next_off : int;
}

let channel_fd = 3

let counter = ref 0

let create kernel ~supervisor ?(size = 1 lsl 20) () =
  incr counter;
  let ch_path = Printf.sprintf "/tmp/.parrot_channel_%d" !counter in
  let flags =
    { Fs.rd = true; wr = true; creat = true; excl = true; trunc = false;
      append = false }
  in
  match
    Kernel.delegate kernel supervisor
      (Syscall.Open { path = ch_path; flags; mode = 0o600 })
  with
  | Error e -> Error e
  | Ok (Syscall.Int fd) ->
    (match Fd_table.find supervisor.View.fds fd with
     | None -> assert false
     | Some f -> Ok { kernel; ch_path; inode = f.Fd_table.inode; size; next_off = 0 })
  | Ok _ -> assert false

let path t = t.ch_path

let attach t (view : View.t) =
  let flags =
    { Fs.rd = true; wr = true; creat = false; excl = false; trunc = false;
      append = false }
  in
  Fd_table.alloc_at view.View.fds channel_fd
    { Fd_table.inode = t.inode; of_path = t.ch_path; flags; pos = 0 }

let reserve t len =
  if len > t.size then
    invalid_arg
      (Printf.sprintf "Iochannel: transfer of %d bytes exceeds channel size %d" len
         t.size);
  let off = if t.next_off + len > t.size then 0 else t.next_off in
  t.next_off <- off + len;
  off

let stage t data =
  let len = String.length data in
  let off = reserve t len in
  (* The supervisor has the channel mapped: staging is a memcpy, not a
     system call. *)
  ignore (Inode.write t.inode ~off data);
  Kernel.note_channel_copy t.kernel ~bytes:len;
  off

let collect t ~off ~len =
  Kernel.note_channel_copy t.kernel ~bytes:len;
  Inode.read t.inode ~off ~len
