type t = { ids : (string, int) Hashtbl.t; mutable names : string array; mutable n : int }

let create () = { ids = Hashtbl.create 1024; names = Array.make 16 ""; n = 0 }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
    let id = t.n in
    if id = Array.length t.names then begin
      let grown = Array.make (2 * Array.length t.names) "" in
      Array.blit t.names 0 grown 0 t.n;
      t.names <- grown
    end;
    t.names.(id) <- s;
    t.n <- t.n + 1;
    Hashtbl.add t.ids s id;
    id

let find t s = Hashtbl.find_opt t.ids s

let name t id =
  if id < 0 || id >= t.n then invalid_arg "Dictionary.name: unassigned id";
  t.names.(id)

let size t = t.n
