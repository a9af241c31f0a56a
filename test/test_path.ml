module Path = Idbox_vfs.Path
module Cost = Idbox_kernel.Cost

let normalize_cases () =
  let cases =
    [
      ("/", "/");
      ("//", "/");
      ("/a//b", "/a/b");
      ("/a/./b", "/a/b");
      ("/a/b/..", "/a");
      ("/a/../..", "/");
      ("/../a", "/a");
      ("/a/b/../../c", "/c");
      ("/tmp/box_1/home/", "/tmp/box_1/home");
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Path.normalize input))
    cases

let join_cases () =
  Alcotest.(check string) "relative" "/home/fred/data"
    (Path.join "/home/fred" "data");
  Alcotest.(check string) "absolute wins" "/etc/passwd"
    (Path.join "/home/fred" "/etc/passwd");
  Alcotest.(check string) "dotdot" "/home/out.dat"
    (Path.join "/home/fred" "../out.dat");
  Alcotest.(check string) "from root" "/work" (Path.join "/" "work")

let basename_dirname () =
  Alcotest.(check string) "basename" "c" (Path.basename "/a/b/c");
  Alcotest.(check string) "dirname" "/a/b" (Path.dirname "/a/b/c");
  Alcotest.(check string) "root basename" "/" (Path.basename "/");
  Alcotest.(check string) "root dirname" "/" (Path.dirname "/");
  Alcotest.(check string) "top dirname" "/" (Path.dirname "/a")

let split_cases () =
  (match Path.split "/a/b" with
   | Some (dir, base) ->
     Alcotest.(check string) "dir" "/a" dir;
     Alcotest.(check string) "base" "b" base
   | None -> Alcotest.fail "split failed");
  Alcotest.(check bool) "root split" true (Path.split "/" = None)

let prefixes () =
  Alcotest.(check bool) "prefix" true (Path.is_prefix ~prefix:"/a/b" "/a/b/c");
  Alcotest.(check bool) "equal is prefix" true (Path.is_prefix ~prefix:"/a/b" "/a/b");
  Alcotest.(check bool) "component-wise" false (Path.is_prefix ~prefix:"/a/b" "/a/bc");
  Alcotest.(check bool) "root prefixes all" true (Path.is_prefix ~prefix:"/" "/x");
  Alcotest.(check (option string)) "strip" (Some "/c")
    (Path.strip_prefix ~prefix:"/a/b" "/a/b/c");
  Alcotest.(check (option string)) "strip equal" (Some "/")
    (Path.strip_prefix ~prefix:"/a/b" "/a/b");
  Alcotest.(check (option string)) "strip mismatch" None
    (Path.strip_prefix ~prefix:"/a/b" "/a/x/c")

let components_keep_dotdot () =
  Alcotest.(check (list string)) "dotdot kept" [ "a"; ".."; "b" ]
    (Path.components "/a/../b");
  Alcotest.(check (list string)) "dot dropped" [ "a"; "b" ]
    (Path.components "/a/./b")

let path_gen =
  QCheck.Gen.(
    let comp = oneofl [ "a"; "b"; "cc"; "."; ".."; "home"; "x1" ] in
    map
      (fun comps -> "/" ^ String.concat "/" comps)
      (list_size (int_range 0 6) comp))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize idempotent" ~count:300 (QCheck.make path_gen)
    (fun p -> String.equal (Path.normalize p) (Path.normalize (Path.normalize p)))

let prop_normalize_no_dots =
  QCheck.Test.make ~name:"normalized paths contain no . or .." ~count:300
    (QCheck.make path_gen) (fun p ->
      List.for_all
        (fun c -> not (String.equal c ".") && not (String.equal c ".."))
        (Path.components (Path.normalize p)))

let prop_join_absolute =
  QCheck.Test.make ~name:"join always absolute" ~count:300
    (QCheck.pair (QCheck.make path_gen) (QCheck.make path_gen))
    (fun (base, p) -> Path.is_absolute (Path.join base p))

(* {1 Scanners against the list code}

   [Path] scans a path once and answers a normal one in place; anything
   else takes the component-list code.  The reference below is that
   list code as it stood before the scanners, and every function must
   agree with it on every string over "/", ".", "a" and "b" up to
   [exhaustive_len] bytes, and on seeded longer ones. *)

module Ref = struct
  let is_absolute p = String.length p > 0 && p.[0] = '/'

  let components p =
    String.split_on_char '/' p
    |> List.filter (fun c -> String.length c > 0 && not (String.equal c "."))

  let of_components = function
    | [] -> "/"
    | comps -> "/" ^ String.concat "/" comps

  let normalize p =
    let resolve acc comp =
      match comp with
      | ".." -> (match acc with [] -> [] | _ :: rest -> rest)
      | c -> c :: acc
    in
    components p |> List.fold_left resolve [] |> List.rev |> of_components

  let join base p =
    if is_absolute p then normalize p else normalize (base ^ "/" ^ p)

  let basename p =
    match List.rev (components p) with
    | [] -> "/"
    | last :: _ -> last

  let dirname p =
    match List.rev (components p) with
    | [] | [ _ ] -> "/"
    | _ :: rest -> of_components (List.rev rest)
end

let alphabet = [| '/'; '.'; 'a'; 'b' |]
let exhaustive_len = 7

(* Every string over [alphabet] of length at most [n], shortest first. *)
let all_strings n =
  let rec grow acc frontier k =
    if k = n then acc
    else
      let next =
        List.concat_map
          (fun s -> Array.to_list (Array.map (fun c -> s ^ String.make 1 c) alphabet))
          frontier
      in
      grow (acc @ next) next (k + 1)
  in
  grow [ "" ] [ "" ] 0

(* The CI seed loop reruns the random part under extra seeds. *)
let seeds =
  let base = [ 1; 7; 42 ] in
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try (int_of_string s mod 1_000_000) :: base with _ -> base)
  | None -> base

let random_strings ~seed ~count ~max_len =
  let rng = Random.State.make [| seed; 0x9a7 |] in
  List.init count (fun _ ->
      String.init (Random.State.int rng (max_len + 1)) (fun _ ->
          alphabet.(Random.State.int rng (Array.length alphabet))))

let named =
  [ ""; "/"; "//"; "a"; "a/b"; "./a"; "../a"; "/a/"; "/a//"; "/a/b/"; "/..."; "/.a";
    "/a/..."; "/a/.b"; "/a/./b"; "/a/../b"; "..."; ".a"; "/a/b/.."; "//a//b//" ]

let corpus =
  named @ all_strings exhaustive_len
  @ List.concat_map (fun seed -> random_strings ~seed ~count:2000 ~max_len:24) seeds

let agree name f g show =
  List.iter
    (fun p ->
      let want = f p and got = g p in
      if want <> got then
        Alcotest.failf "%s %S: list code gives %s, scanner %s" name p (show want) (show got))
    corpus

let str s = Printf.sprintf "%S" s
let strs l = "[" ^ String.concat "; " (List.map str l) ^ "]"

let scanners_match_list_code () =
  agree "components" Ref.components Path.components strs;
  agree "normalize" Ref.normalize Path.normalize str;
  agree "basename" Ref.basename Path.basename str;
  agree "dirname" Ref.dirname Path.dirname str;
  agree "component_count" (fun p -> List.length (Ref.components p)) Path.component_count
    string_of_int;
  agree "is_normal" (fun p -> String.equal (Ref.normalize p) p) Path.is_normal
    string_of_bool

let join_matches_list_code () =
  let sides =
    named @ all_strings 3
    @ List.concat_map (fun seed -> random_strings ~seed ~count:40 ~max_len:16) seeds
  in
  List.iter
    (fun base ->
      List.iter
        (fun p ->
          let want = Ref.join base p and got = Path.join base p in
          if not (String.equal want got) then
            Alcotest.failf "join %S %S: list code gives %S, scanner %S" base p want got)
        sides)
    sides

(* [Path.is_prefix] compares normal paths in place: it must agree with
   the component lists on every pair, normal or not, including names
   that extend one another ("/a" and "/ab"). *)
let prefix_matches_list_code () =
  let sides =
    named @ [ "/ab"; "/a/bb"; "/a/b/a"; "/b/a" ] @ all_strings 4
    @ List.concat_map (fun seed -> random_strings ~seed ~count:40 ~max_len:12) seeds
  in
  let rec lead pre cs =
    match (pre, cs) with
    | [], _ -> true
    | _ :: _, [] -> false
    | a :: pre', b :: cs' -> String.equal a b && lead pre' cs'
  in
  List.iter
    (fun prefix ->
      List.iter
        (fun p ->
          let want = lead (Ref.components prefix) (Ref.components p) in
          if Path.is_prefix ~prefix p <> want then
            Alcotest.failf "is_prefix ~prefix:%S %S: list code gives %b" prefix p want)
        sides)
    sides

let normal_path_returned_as_is () =
  List.iter
    (fun p ->
      if Path.is_normal p then begin
        if Path.normalize p != p then Alcotest.failf "normalize %S copied a normal path" p;
        if Path.join "/x" p != p then Alcotest.failf "join _ %S copied a normal path" p
      end)
    corpus

let path_cost_counts_components () =
  let cost = Cost.default in
  agree "path_cost"
    (fun p -> Int64.mul cost.Cost.path_component (Int64.of_int (List.length (Ref.components p))))
    (Cost.path_cost cost) Int64.to_string

let suite =
  [
    Alcotest.test_case "normalize" `Quick normalize_cases;
    Alcotest.test_case "join" `Quick join_cases;
    Alcotest.test_case "basename/dirname" `Quick basename_dirname;
    Alcotest.test_case "split" `Quick split_cases;
    Alcotest.test_case "prefixes" `Quick prefixes;
    Alcotest.test_case "components keep dotdot" `Quick components_keep_dotdot;
    QCheck_alcotest.to_alcotest prop_normalize_idempotent;
    QCheck_alcotest.to_alcotest prop_normalize_no_dots;
    QCheck_alcotest.to_alcotest prop_join_absolute;
    Alcotest.test_case "scanners match list code" `Quick scanners_match_list_code;
    Alcotest.test_case "join matches list code" `Quick join_matches_list_code;
    Alcotest.test_case "normal path returned as is" `Quick normal_path_returned_as_is;
    Alcotest.test_case "path_cost counts components" `Quick path_cost_counts_components;
    Alcotest.test_case "prefix matches list code" `Quick prefix_matches_list_code;
  ]
