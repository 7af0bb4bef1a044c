module Relation = Testkit.Relation
module Dictionary = Jp_io.Dictionary
module Relation_io = Jp_io.Relation_io

let with_temp_file f =
  let path = Filename.temp_file "joinproj" ".rel" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_dictionary () =
  let d = Dictionary.create () in
  Alcotest.(check int) "first id" 0 (Dictionary.intern d "alice");
  Alcotest.(check int) "second id" 1 (Dictionary.intern d "bob");
  Alcotest.(check int) "repeat" 0 (Dictionary.intern d "alice");
  Alcotest.(check int) "size" 2 (Dictionary.size d);
  Alcotest.(check string) "name" "bob" (Dictionary.name d 1);
  Alcotest.(check (option int)) "find" (Some 0) (Dictionary.find d "alice");
  Alcotest.(check (option int)) "find missing" None (Dictionary.find d "carol");
  Alcotest.check_raises "bad id" (Invalid_argument "Dictionary.name: unassigned id")
    (fun () -> ignore (Dictionary.name d 5));
  (* past the initial capacity of 16 names *)
  let g = Dictionary.create () in
  for i = 0 to 99 do
    ignore (Dictionary.intern g (Printf.sprintf "name-%d" i))
  done;
  Alcotest.(check int) "grown size" 100 (Dictionary.size g);
  for i = 0 to 99 do
    if Dictionary.name g i <> Printf.sprintf "name-%d" i then
      Alcotest.failf "name %d corrupted" i
  done

let test_relation_roundtrip () =
  let r = Gen.skewed_relation ~seed:401 ~nx:30 ~ny:25 ~edges:200 () in
  with_temp_file (fun path ->
      Relation_io.save_file r path;
      match Relation_io.load_file path with
      | Ok r2 -> Alcotest.(check bool) "roundtrip" true (Relation.equal r r2)
      | Error e -> Alcotest.fail e)

let test_relation_empty_roundtrip () =
  let r = Relation.of_edges ~src_count:4 ~dst_count:7 [||] in
  with_temp_file (fun path ->
      Relation_io.save_file r path;
      match Relation_io.load_file path with
      | Ok r2 ->
        Alcotest.(check int) "src" 4 (Relation.src_count r2);
        Alcotest.(check int) "dst" 7 (Relation.dst_count r2);
        Alcotest.(check int) "size" 0 (Relation.size r2)
      | Error e -> Alcotest.fail e)

let load_string content =
  let path = Filename.temp_file "joinproj" ".rel" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Relation_io.load_file path)

let test_load_errors () =
  let expect_error content what =
    match load_string content with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected failure: %s" what
  in
  expect_error "" "empty";
  expect_error "nonsense\n1 1\n" "bad header";
  expect_error "# joinproj relation v1\n" "missing sizes";
  expect_error "# joinproj relation v1\nfoo bar\n" "bad sizes";
  expect_error "# joinproj relation v1\n2 2\n5 0\n" "id out of range";
  expect_error "# joinproj relation v1\n2 2\n1\n" "malformed edge";
  expect_error "# joinproj relation v1\n-1 5\n" "negative id space";
  expect_error "# joinproj relation v1\n4000000000000 2\n" "id space above the bound"

let test_import_tsv () =
  let path = Filename.temp_file "joinproj" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# a comment\nalice\tpaper1\nbob\tpaper1\nalice\tpaper2\n\n";
      close_out oc;
      let ic = open_in path in
      let result = Relation_io.import_tsv ic in
      close_in ic;
      match result with
      | Error e -> Alcotest.fail e
      | Ok (r, authors, papers) ->
        Alcotest.(check int) "tuples" 3 (Relation.size r);
        Alcotest.(check int) "authors" 2 (Dictionary.size authors);
        Alcotest.(check int) "papers" 2 (Dictionary.size papers);
        let alice = Option.get (Dictionary.find authors "alice") in
        let paper2 = Option.get (Dictionary.find papers "paper2") in
        Alcotest.(check bool) "edge present" true (Relation.mem r alice paper2))

let test_import_tsv_spaces () =
  let path = Filename.temp_file "joinproj" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "x y\nx z\n";
      close_out oc;
      let ic = open_in path in
      let result = Relation_io.import_tsv ic in
      close_in ic;
      match result with
      | Error e -> Alcotest.fail e
      | Ok (r, _, _) -> Alcotest.(check int) "tuples" 2 (Relation.size r))

let suite =
  [
    Alcotest.test_case "dictionary" `Quick test_dictionary;
    Alcotest.test_case "relation roundtrip" `Quick test_relation_roundtrip;
    Alcotest.test_case "empty relation roundtrip" `Quick test_relation_empty_roundtrip;
    Alcotest.test_case "load errors" `Quick test_load_errors;
    Alcotest.test_case "import tsv" `Quick test_import_tsv;
    Alcotest.test_case "import tsv spaces" `Quick test_import_tsv_spaces;
  ]
