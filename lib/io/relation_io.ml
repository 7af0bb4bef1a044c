module Relation = Jp_relation.Relation

let header = "# joinproj relation v1"

let save r oc =
  output_string oc header;
  output_char oc '\n';
  Printf.fprintf oc "%d %d\n" (Relation.src_count r) (Relation.dst_count r);
  Relation.iter (fun x y -> Printf.fprintf oc "%d %d\n" x y) r

let save_file r path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> save r oc)

(* Each declared id allocates an adjacency slot per side before any edge
   is read, so a size line is bounded before [Relation.of_flat] sees it
   (relation_io.mli documents the bound). *)
let max_ids = 1 lsl 26

let split_two line =
  match String.split_on_char ' ' (String.trim line) with
  | [ a; b ] -> Some (a, b)
  | _ -> (
    (* tolerate tabs / repeated whitespace *)
    match
      List.filter
        (fun s -> s <> "")
        (String.split_on_char '\t'
           (String.map (fun c -> if c = ' ' then '\t' else c) line))
    with
    | [ a; b ] -> Some (a, b)
    | _ -> None)

let load ic =
  match input_line ic with
  | exception End_of_file -> Error "empty file"
  | first ->
    if String.trim first <> header then Error "bad header (not a joinproj relation)"
    else begin
      match input_line ic with
      | exception End_of_file -> Error "missing size line"
      | sizes -> (
        match split_two sizes with
        | None -> Error "malformed size line"
        | Some (a, b) -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some src_count, Some dst_count when src_count < 0 || dst_count < 0 ->
            Error "negative id-space size"
          | Some src_count, Some dst_count when src_count > max_ids || dst_count > max_ids
            ->
            Error (Printf.sprintf "id-space size exceeds %d" max_ids)
          | Some src_count, Some dst_count ->
            let edges = Jp_util.Vec.create () in
            let error = ref None in
            let lineno = ref 2 in
            (try
               while !error = None do
                 let line = input_line ic in
                 incr lineno;
                 if String.trim line <> "" then
                   match split_two line with
                   | Some (xs, ys) -> (
                     match (int_of_string_opt xs, int_of_string_opt ys) with
                     | Some x, Some y when x >= 0 && x < src_count && y >= 0 && y < dst_count
                       -> Jp_util.Vec.push2 edges x y
                     | _ -> error := Some (Printf.sprintf "bad edge at line %d" !lineno))
                   | None -> error := Some (Printf.sprintf "malformed line %d" !lineno)
               done
             with End_of_file -> ());
            (match !error with
            | Some e -> Error e
            | None ->
              Ok
                (Relation.of_flat ~src_count ~dst_count (Jp_util.Vec.to_array edges)))
          | _ -> Error "malformed size line"))
    end

let load_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load ic)

let import_tsv ic =
  let src_dict = Dictionary.create () and dst_dict = Dictionary.create () in
  let edges = Jp_util.Vec.create () in
  let error = ref None in
  let lineno = ref 0 in
  (try
     while !error = None do
       let line = input_line ic in
       incr lineno;
       let trimmed = String.trim line in
       if trimmed <> "" && trimmed.[0] <> '#' then
         match split_two line with
         | Some (a, b) ->
           Jp_util.Vec.push2 edges (Dictionary.intern src_dict a)
             (Dictionary.intern dst_dict b)
         | None -> error := Some (Printf.sprintf "malformed line %d" !lineno)
     done
   with End_of_file -> ());
  match !error with
  | Some e -> Error e
  | None ->
    if Jp_util.Vec.length edges = 0 then Error "no edges"
    else
      Ok
        ( Relation.of_flat
            ~src_count:(Dictionary.size src_dict)
            ~dst_count:(Dictionary.size dst_dict)
            (Jp_util.Vec.to_array edges),
          src_dict,
          dst_dict )
