type entry = {
  name : string;
  uid : int;
  gecos : string;
  home : string;
  shell : string;
}

type t = {
  by_name : (string, entry) Hashtbl.t;
  by_uid : (int, entry) Hashtbl.t;
  mutable next_uid : int;
}

let root_uid = 0
let nobody_uid = 65534

let insert t e =
  Hashtbl.replace t.by_name e.name e;
  Hashtbl.replace t.by_uid e.uid e

let create () =
  let t = { by_name = Hashtbl.create 16; by_uid = Hashtbl.create 16; next_uid = 1000 } in
  insert t { name = "root"; uid = root_uid; gecos = "superuser"; home = "/root"; shell = "/bin/sh" };
  insert t
    { name = "nobody"; uid = nobody_uid; gecos = "unprivileged"; home = "/"; shell = "/bin/false" };
  t

let add t name =
  if String.length name = 0 then Error "empty account name"
  else if Hashtbl.mem t.by_name name then
    Error (Printf.sprintf "account %S already exists" name)
  else begin
    let uid = t.next_uid in
    t.next_uid <- uid + 1;
    let e = { name; uid; gecos = ""; home = "/home/" ^ name; shell = "/bin/sh" } in
    insert t e;
    Ok e
  end

let remove t name =
  match Hashtbl.find_opt t.by_name name with
  | None -> Error (Printf.sprintf "no account %S" name)
  | Some e when e.uid = root_uid || e.uid = nobody_uid ->
    Error (Printf.sprintf "account %S cannot be removed" name)
  | Some e ->
    Hashtbl.remove t.by_name name;
    Hashtbl.remove t.by_uid e.uid;
    Ok ()

let find t name = Hashtbl.find_opt t.by_name name

let find_uid t uid = Hashtbl.find_opt t.by_uid uid

let name_of_uid t uid =
  match find_uid t uid with
  | Some e -> e.name
  | None -> Printf.sprintf "uid%d" uid

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.by_uid []
  |> List.sort (fun a b -> Int.compare a.uid b.uid)

let count t = Hashtbl.length t.by_uid

let render_entry e =
  Printf.sprintf "%s:x:%d:%d:%s:%s:%s" e.name e.uid e.uid e.gecos e.home e.shell

let render_passwd t =
  String.concat "" (List.map (fun e -> render_entry e ^ "\n") (entries t))

let pp ppf t = Format.pp_print_string ppf (render_passwd t)
