type term = Var of string | Const of int

type atom = { relation : string; args : term * term }

type t = { head : string list; body : atom list }

(* ------------------------------------------------------------------ *)
(* parser: a small hand-rolled recursive descent with positions        *)
(* ------------------------------------------------------------------ *)

type cursor = { text : string; mutable pos : int }

exception Parse_error of string * int

let error c msg = raise (Parse_error (msg, c.pos))

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error c (Printf.sprintf "expected '%c', found '%c'" ch x)
  | None -> error c (Printf.sprintf "expected '%c', found end of input" ch)

let is_ident_start ch = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')

let is_ident ch =
  is_ident_start ch || (ch >= '0' && ch <= '9') || ch = '_'

let is_digit ch = ch >= '0' && ch <= '9'

let parse_ident c =
  skip_ws c;
  match peek c with
  | Some ch when is_ident_start ch ->
    let start = c.pos in
    while match peek c with Some ch -> is_ident ch | None -> false do
      advance c
    done;
    String.sub c.text start (c.pos - start)
  | Some ch -> error c (Printf.sprintf "expected identifier, found '%c'" ch)
  | None -> error c "expected identifier, found end of input"

let parse_term c =
  skip_ws c;
  match peek c with
  | Some ch when is_digit ch || ch = '-' ->
    let start = c.pos in
    if ch = '-' then advance c;
    (match peek c with
    | Some d when is_digit d -> ()
    | _ -> error c "expected digits after '-'");
    while match peek c with Some d -> is_digit d | None -> false do
      advance c
    done;
    Const (int_of_string (String.sub c.text start (c.pos - start)))
  | _ -> Var (parse_ident c)

let parse_var c =
  match parse_term c with
  | Var v -> v
  | Const _ -> error c "head arguments must be variables"

(* name(arg, arg) *)
let parse_atom c =
  let relation = parse_ident c in
  expect c '(';
  let a = parse_term c in
  expect c ',';
  let b = parse_term c in
  expect c ')';
  { relation; args = (a, b) }

let rec parse_separated c parse_one acc =
  let item = parse_one c in
  skip_ws c;
  match peek c with
  | Some ',' ->
    advance c;
    parse_separated c parse_one (item :: acc)
  | _ -> List.rev (item :: acc)

let atom_vars { args = a, b; _ } =
  match (a, b) with
  | Var x, Var y when x = y -> [ x ]
  | Var x, Var y -> [ x; y ]
  | Var x, Const _ -> [ x ]
  | Const _, Var y -> [ y ]
  | Const _, Const _ -> []

let vars q =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun atom ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            out := v :: !out
          end)
        (atom_vars atom))
    q.body;
  List.rev !out

let parse input =
  let c = { text = input; pos = 0 } in
  try
    let _name = parse_ident c in
    expect c '(';
    skip_ws c;
    let parse_head_var c =
      skip_ws c;
      let pos = c.pos in
      (parse_var c, pos)
    in
    let head_with_pos =
      match peek c with
      | Some ')' -> []
      | _ -> parse_separated c parse_head_var []
    in
    expect c ')';
    expect c ':';
    expect c '-';
    let body = parse_separated c parse_atom [] in
    skip_ws c;
    (match peek c with
    | Some ch -> error c (Printf.sprintf "unexpected trailing '%c'" ch)
    | None -> ());
    let head = List.map fst head_with_pos in
    let q = { head; body } in
    let body_vars = vars q in
    List.iter
      (fun (v, pos) ->
        if not (List.mem v body_vars) then
          raise (Parse_error ("head variable '" ^ v ^ "' not bound in body", pos)))
      head_with_pos;
    Ok q
  with Parse_error (msg, pos) ->
    Error (Printf.sprintf "parse error at offset %d: %s" pos msg)
