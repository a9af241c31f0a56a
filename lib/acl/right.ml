type t =
  | Read
  | Write
  | List
  | Execute
  | Admin
  | Delete

let all = [ Read; Write; List; Execute; Admin; Delete ]

let to_char = function
  | Read -> 'r'
  | Write -> 'w'
  | List -> 'l'
  | Execute -> 'x'
  | Admin -> 'a'
  | Delete -> 'd'

let of_char = function
  | 'r' -> Some Read
  | 'w' -> Some Write
  | 'l' -> Some List
  | 'x' -> Some Execute
  | 'a' -> Some Admin
  | 'd' -> Some Delete
  | _ -> None

let describe = function
  | Read -> "read file contents"
  | Write -> "write or create files"
  | List -> "list directory entries"
  | Execute -> "execute programs"
  | Admin -> "modify the access control list"
  | Delete -> "remove files or directories"

let equal (a : t) b = a = b

let pp ppf t = Format.pp_print_char ppf (to_char t)
