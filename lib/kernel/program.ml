type main = string list -> int

type _ Effect.t += Sys : Syscall.request -> Syscall.result Effect.t

let sys req = Effect.perform (Sys req)

exception Exited of int

exception Killed of int

let registry : (string, main) Hashtbl.t = Hashtbl.create 32

let register name main = Hashtbl.replace registry name main

let find name = Hashtbl.find_opt registry name

let prefix = "#!idbox-program:"

let marker name = prefix ^ name ^ "\n"

let of_marker contents =
  if String.length contents > String.length prefix
     && String.equal (String.sub contents 0 (String.length prefix)) prefix
  then
    let rest = String.sub contents (String.length prefix)
        (String.length contents - String.length prefix) in
    match String.index_opt rest '\n' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> Some rest
  else None

let snapshot () = Hashtbl.fold (fun name main acc -> (name, main) :: acc) registry []

let restore entries =
  Hashtbl.reset registry;
  List.iter (fun (name, main) -> Hashtbl.replace registry name main) entries
