type rdn = {
  attr : string;
  value : string;
}

type t = rdn list

let parse_component comp =
  match String.index_opt comp '=' with
  | None -> Error (Printf.sprintf "subject component %S lacks '='" comp)
  | Some 0 -> Error (Printf.sprintf "subject component %S has empty attribute" comp)
  | Some i ->
    Ok
      {
        attr = String.sub comp 0 i;
        value = String.sub comp (i + 1) (String.length comp - i - 1);
      }

let of_string s =
  if String.length s = 0 then Error "empty subject"
  else if s.[0] <> '/' then Error "subject must begin with '/'"
  else
    let comps =
      String.split_on_char '/' (String.sub s 1 (String.length s - 1))
      |> List.filter (fun c -> String.length c > 0)
    in
    if comps = [] then Error "subject has no components"
    else
      let rec build acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest ->
          (match parse_component c with
           | Ok rdn -> build (rdn :: acc) rest
           | Error _ as e -> e)
      in
      build [] comps

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error msg -> invalid_arg ("Subject.of_string_exn: " ^ msg)

let to_string t =
  String.concat "" (List.map (fun { attr; value } -> "/" ^ attr ^ "=" ^ value) t)

let common_name t =
  List.fold_left
    (fun acc rdn -> if String.equal rdn.attr "CN" then Some rdn.value else acc)
    None t

let organization t =
  List.find_opt (fun rdn -> String.equal rdn.attr "O") t
  |> Option.map (fun rdn -> rdn.value)

let rdn_equal a b = String.equal a.attr b.attr && String.equal a.value b.value

let rec is_prefix ~prefix t =
  match (prefix, t) with
  | [], _ -> true
  | _ :: _, [] -> false
  | p :: ps, x :: xs -> rdn_equal p x && is_prefix ~prefix:ps xs

let append t rdn = t @ [ rdn ]

let equal a b = List.length a = List.length b && List.for_all2 rdn_equal a b

let pp ppf t = Format.pp_print_string ppf (to_string t)
