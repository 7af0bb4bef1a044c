module Bitset = Jp_util.Bitset
module Sorted = Jp_util.Sorted
module Vec = Jp_util.Vec
module Rng = Jp_util.Rng

let check = Alcotest.(check (list int))

let bits b =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) b;
  List.rev !acc

let test_bitset_basic () =
  let b = Bitset.create 200 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 61;
  Bitset.set b 62;
  Bitset.set b 199;
  Alcotest.(check int) "count" 4 (Bitset.count b);
  check "iter order" [ 0; 61; 62; 199 ] (bits b);
  Alcotest.(check bool) "mem" true (Bitset.mem b 62);
  Alcotest.(check bool) "not mem" false (Bitset.mem b 63)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "set oob" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b 10);
  Alcotest.check_raises "neg" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.mem b (-1) |> ignore)

let test_bitset_ops () =
  let a = Bitset.of_sorted_array 300 [| 1; 70; 150; 299 |] in
  let b = Bitset.of_sorted_array 300 [| 1; 71; 150 |] in
  let u = Bitset.create 300 in
  Bitset.union_into ~dst:u a;
  Bitset.union_into ~dst:u b;
  check "union" [ 1; 70; 71; 150; 299 ] (bits u);
  Alcotest.(check int) "inter_count" 2 (Bitset.inter_count a b)

let test_bitset_union_into_at () =
  (* The offset is a whole number of 62-bit words (124 = 2 words). *)
  let dst = Bitset.of_sorted_array 300 [| 0; 99; 250 |] in
  let src = Bitset.of_sorted_array 70 [| 0; 5; 61; 62; 69 |] in
  Bitset.union_into_at ~dst 124 src;
  check "word-offset union" [ 0; 99; 124; 129; 185; 186; 193; 250 ]
    (bits dst);
  (* Flush against the end of dst. *)
  let dst2 = Bitset.create 256 in
  Bitset.union_into_at ~dst:dst2 186 src;
  check "flush right" [ 186; 191; 247; 248; 255 ] (bits dst2);
  let raises label off =
    Alcotest.check_raises label
      (Invalid_argument "Bitset.union_into_at: offset unaligned or out of bounds")
      (fun () -> Bitset.union_into_at ~dst:dst2 off src)
  in
  raises "unaligned" 100;
  raises "oob" 248;
  raises "negative" (-62)

let prop_union_into_at =
  QCheck.Test.make ~name:"union_into_at = shifted set union" ~count:300
    QCheck.(
      quad (int_bound 3) (int_range 1 130) (small_list (int_bound 129))
        (pair (int_bound 40) (small_list (int_bound 400))))
    (fun (off_words, src_width, src_l, (slack, dst_l)) ->
      let off = off_words * Bitset.bits_per_word in
      let src_l = List.filter (fun p -> p < src_width) src_l in
      let src = Bitset.create src_width in
      List.iter (Bitset.set src) src_l;
      let dst = Bitset.create (off + src_width + slack) in
      let dst_l = List.filter (fun p -> p < off + src_width + slack) dst_l in
      List.iter (Bitset.set dst) dst_l;
      let expect =
        List.sort_uniq Stdlib.compare
          (dst_l @ List.map (fun p -> p + off) src_l)
      in
      Bitset.union_into_at ~dst off src;
      bits dst = expect)

let prop_bitset_matches_model =
  QCheck.Test.make ~name:"bitset agrees with a bool-array model" ~count:200
    QCheck.(pair (int_bound 300) (small_list (int_bound 300)))
    (fun (extra, positions) ->
      let width = 301 + extra in
      let b = Bitset.create width in
      let model = Array.make width false in
      List.iter
        (fun p ->
          Bitset.set b p;
          model.(p) <- true)
        positions;
      let model_list =
        Array.to_list (Array.of_seq (Seq.filter (fun i -> model.(i))
          (Seq.init width (fun i -> i))))
      in
      bits b = model_list && Bitset.count b = List.length model_list)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  let v = Vec.create () in
  Array.iter (fun x -> Vec.push v x) a;
  Vec.sort_dedup v;
  Vec.to_array v

let prop_intersect =
  QCheck.Test.make ~name:"Sorted.intersect = set intersection" ~count:300
    QCheck.(pair (small_list (int_bound 100)) (small_list (int_bound 100)))
    (fun (la, lb) ->
      let a = sorted_of_list la and b = sorted_of_list lb in
      let expect =
        List.sort_uniq compare (List.filter (fun x -> List.mem x lb) la)
      in
      Array.to_list (Sorted.intersect a b) = expect
      && Sorted.intersect_count a b = List.length expect)

let prop_union_subset =
  QCheck.Test.make ~name:"Sorted.union/subset" ~count:300
    QCheck.(pair (small_list (int_bound 100)) (small_list (int_bound 100)))
    (fun (la, lb) ->
      let a = sorted_of_list la and b = sorted_of_list lb in
      let sa = List.sort_uniq compare la and sb = List.sort_uniq compare lb in
      (* written past a prefix it must leave alone *)
      let u = Array.make (3 + Array.length a + Array.length b) (-1) in
      let n = Sorted.union_into a b u 3 in
      Array.sub u 0 3 = [| -1; -1; -1 |]
      && Array.to_list (Array.sub u 3 n) = List.sort_uniq compare (sa @ sb)
      && Sorted.subset a b = List.for_all (fun x -> List.mem x sb) sa)

let test_gallop () =
  let a = [| 2; 4; 6; 8; 10; 12; 14 |] in
  Alcotest.(check int) "gallop hit" 3 (Sorted.gallop a ~start:0 8);
  Alcotest.(check int) "gallop miss" 3 (Sorted.gallop a ~start:0 7);
  Alcotest.(check int) "gallop end" 7 (Sorted.gallop a ~start:0 100);
  Alcotest.(check int) "gallop start" 4 (Sorted.gallop a ~start:4 3)

let test_vec () =
  let v = Vec.create ~capacity:1 () in
  for i = 9 downto 0 do
    Vec.push v i;
    Vec.push v i
  done;
  Alcotest.(check int) "len" 20 (Vec.length v);
  Vec.sort_dedup v;
  check "sort_dedup" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Array.to_list (Vec.to_array v));
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push2 v 5 7;
  check "push2" [ 5; 7 ] (Array.to_list (Vec.to_array v))

(* Row accumulator.  [nz] spans 1000 bitset words, so a row drawn from a
   few words near either end is narrow (emitted by the bit scan), and a
   row drawn from the whole domain is wide (emitted by a sort of the
   candidates: insertion up to 32 ids, radix past that). *)
module Row_acc = Testkit.Row_acc

let acc_nz = 62 * 1000

type acc_row = Short_wide | Long_wide | Narrow_low | Narrow_high

let acc_row_ids g kind =
  let draw n lo width = List.init n (fun _ -> lo + Rng.int g width) in
  match kind with
  | Short_wide -> draw (1 + Rng.int g 32) 0 acc_nz
  | Long_wide -> draw (33 + Rng.int g 160) 0 acc_nz
  | Narrow_low -> [ 61; 62; 123; 124 ] @ draw (Rng.int g 200) 0 (62 * 6)
  | Narrow_high -> [ acc_nz - 1 ] @ draw (Rng.int g 200) (acc_nz - (62 * 6)) (62 * 6)

(* Each id is presented one to three times, in shuffled order. *)
let acc_presentations g ids =
  let a = Array.of_list (List.concat_map (fun z -> List.init (1 + Rng.int g 3) (fun _ -> z)) ids) in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let acc_kinds = [| Short_wide; Long_wide; Narrow_low; Narrow_high |]

let prop_row_acc_emit =
  QCheck.Test.make ~name:"Row_acc.emit = sorted distinct candidates" ~count:200
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, k) ->
      let g = Rng.create (seed + 500) in
      let acc = Row_acc.create acc_nz in
      (* two rows per case on one accumulator, of every kind pair *)
      List.for_all
        (fun kind ->
          let ids = acc_row_ids g kind in
          Row_acc.start acc;
          Array.iteri
            (fun i z ->
              if i mod 2 = 0 then Row_acc.add_light acc [| z |] else Row_acc.add_all acc [| z |])
            (acc_presentations g ids);
          Array.to_list (Row_acc.emit acc) = List.sort_uniq compare ids)
        [ acc_kinds.(k); acc_kinds.(seed mod 4) ])

let prop_row_acc_counts =
  QCheck.Test.make ~name:"Row_acc.emit_counts = summed multiplicities" ~count:200
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, k) ->
      let g = Rng.create (seed + 900) in
      let acc = Row_acc.create ~counts:true acc_nz in
      List.for_all
        (fun kind ->
          let ids = acc_row_ids g kind in
          let expect = Hashtbl.create 64 in
          Row_acc.start acc;
          Array.iter
            (fun z ->
              let w = 1 + Rng.int g 5 in
              Hashtbl.replace expect z (w + Option.value ~default:0 (Hashtbl.find_opt expect z));
              Row_acc.add_witnesses acc (Array.make w z))
            (acc_presentations g ids);
          let zs, cs = Row_acc.emit_counts acc in
          Array.to_list zs = List.sort_uniq compare ids
          && Array.length cs = Array.length zs
          && Array.for_all2 (fun z c -> Hashtbl.find expect z = c) zs cs)
        [ acc_kinds.(k); acc_kinds.(seed mod 4) ])

(* [emit_ge c] keeps exactly the ids [emit_counts] gives at least [c]
   witnesses, with witnesses added as sorted-list suffixes
   ([add_witnesses_from]) and as runs of repeated witnesses. *)
let prop_row_acc_emit_ge =
  QCheck.Test.make ~name:"Row_acc.emit_ge = emit_counts filtered at c" ~count:200
    QCheck.(triple small_int (int_bound 3) (int_range 1 4))
    (fun (seed, k, c) ->
      let g = Rng.create (seed + 1300) in
      let acc = Row_acc.create ~counts:true acc_nz in
      let lists =
        List.init (1 + Rng.int g 4) (fun _ ->
            let zs = Array.of_list (List.sort_uniq compare (acc_row_ids g acc_kinds.(k))) in
            (zs, Rng.int g (Array.length zs + 2)))
      in
      let extra = List.init (Rng.int g 20) (fun _ -> (Rng.int g acc_nz, 1 + Rng.int g 3)) in
      let fill () =
        Row_acc.start acc;
        List.iter (fun (zs, from) -> Row_acc.add_witnesses_from acc zs from) lists;
        List.iter (fun (z, w) -> Row_acc.add_witnesses acc (Array.make w z)) extra
      in
      fill ();
      let zs, cs = Row_acc.emit_counts acc in
      let expect = List.filteri (fun i _ -> cs.(i) >= c) (Array.to_list zs) in
      fill ();
      Array.to_list (Row_acc.emit_ge acc c) = expect)

(* Split rows.  A case draws an ascending column set [heavy] over the
   domain (the product's heavy z), its first held column, a seed row over
   the held columns, and lists that mix ids with a held column and ids
   without one.  Two cases run on one pair of accumulators with their
   roles swapped, so each accumulator emits a split row next to a plain
   one and neither may leak into the other. *)
let split_case g =
  let heavy = Array.of_list (List.sort_uniq compare (acc_row_ids g acc_kinds.(Rng.int g 4))) in
  let w = Array.length heavy in
  let index = Array.make acc_nz (-1) in
  Array.iteri (fun l z -> index.(z) <- l) heavy;
  let first = Rng.int g (w + 1) in
  let held = List.filter (fun _ -> Rng.bool g) (List.init (w - first) (fun k -> first + k)) in
  let list () =
    Array.of_list
      (List.sort_uniq compare
         (List.filter
            (fun z -> index.(z) < 0 || index.(z) >= first)
            (acc_row_ids g acc_kinds.(Rng.int g 4)
            @ List.filter (fun _ -> Rng.int g 3 = 0) (Array.to_list heavy))))
  in
  let lists = List.init (Rng.int g 5) (fun _ -> list ()) in
  let light =
    List.init (Rng.int g 3) (fun _ ->
        Array.of_list (List.filter (fun z -> index.(z) < 0) (Array.to_list (list ()))))
  in
  (heavy, index, first, held, lists, light)

let prop_row_acc_split =
  QCheck.Test.make ~name:"Row_acc split row = plain row of the same ids" ~count:200
    QCheck.small_int
    (fun seed ->
      let g = Rng.create (seed + 1700) in
      let a = Row_acc.create acc_nz and b = Row_acc.create acc_nz in
      List.for_all
        (fun (plain, split) ->
          let heavy, index, _, held, lists, light = split_case g in
          (* The held columns, spread over one to three overlapping bit
             rows laid end to end in one flat array after a word of
             noise: ORing the rows in sets exactly the held columns. *)
          let stride = Jp_util.Bitset.payload_words (Array.length heavy) in
          let k = 1 + Rng.int g 3 in
          let words = Array.make (1 + (k * stride)) 0 in
          words.(0) <- Rng.int g max_int;
          List.iter
            (fun l ->
              List.iter
                (fun i ->
                  let at = 1 + (i * stride) + (l / 62) in
                  words.(at) <- words.(at) lor (1 lsl (l mod 62)))
                (Rng.int g k :: List.filter (fun _ -> Rng.bool g) (List.init k Fun.id)))
            held;
          Row_acc.start plain;
          Row_acc.add_all plain (Array.of_list (List.map (fun l -> heavy.(l)) held));
          List.iter (Row_acc.add_all plain) (lists @ light);
          Row_acc.start_split split ~index ~heavy;
          for i = 0 to k - 1 do
            Row_acc.or_words split words (1 + (i * stride)) stride
          done;
          let seeded = Row_acc.size split in
          List.iter (Row_acc.add_all split) lists;
          List.iter (Row_acc.add_light split) light;
          seeded = List.length held
          && Row_acc.size split = Row_acc.size plain
          && Row_acc.emit split = Row_acc.emit plain)
        [ (a, b); (b, a) ])

(* The counting split: the seed row holds the counts of columns
   [first, w), and [emit_counts] / [emit_ge c] equal a plain row's given
   each seed count as that many witnesses. *)
let prop_row_acc_split_counts =
  QCheck.Test.make ~name:"Row_acc counting split row = plain counted row" ~count:200
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, c) ->
      let g = Rng.create (seed + 2100) in
      let a = Row_acc.create ~counts:true acc_nz
      and b = Row_acc.create ~counts:true acc_nz in
      List.for_all
        (fun (plain, split) ->
          let heavy, index, first, held, lists, light = split_case g in
          let w = Array.length heavy in
          let row = Array.make (w - first) 0 in
          List.iter (fun l -> row.(l - first) <- 1 + Rng.int g 4) held;
          let froms = List.map (fun zs -> Rng.int g (Array.length zs + 1)) (lists @ light) in
          let fill acc seeded =
            seeded ();
            List.iter2 (Row_acc.add_witnesses_from acc) (lists @ light) froms
          in
          let plain_row () =
            Row_acc.start plain;
            Array.iteri
              (fun k n -> Row_acc.add_witnesses plain (Array.make n heavy.(first + k)))
              row
          in
          let split_row () =
            ignore (Row_acc.start_split_counts split ~index ~heavy row)
          in
          fill plain plain_row;
          fill split split_row;
          let same_size = Row_acc.size split = Row_acc.size plain in
          let same_counts = Row_acc.emit_counts split = Row_acc.emit_counts plain in
          fill plain plain_row;
          fill split split_row;
          same_size && same_counts && Row_acc.emit_ge split c = Row_acc.emit_ge plain c)
        [ (a, b); (b, a) ])

(* Plane rows.  [k] bit rows over [w] columns (widths on and around
   62-bit word edges), laid end to end after a word of noise, are
   saturated into [c] planes held from [first] on ([first] = 0, w − 1,
   w, or drawn), then witness lists of held columns and of ids without
   a column are added.  Every threshold t ≤ c emits exactly the held
   columns whose count (bit rows setting the column, plus its
   witnesses) is at least t, merged with the stamped ids of at least t
   witnesses — so each held column holds min(count, c) — and
   [close_planes] returns the held columns some bit row sets. *)
let prop_row_acc_planes =
  QCheck.Test.make ~name:"Row_acc plane row = min(count, c) past first" ~count:200
    QCheck.(triple small_int (int_range 1 6) (int_range 0 3))
    (fun (seed, c, pick) ->
      let g = Rng.create (seed + 2500) in
      let widths = [| 1; 2; 61; 62; 63; 123; 124; 125; 187; 248 |] in
      let w = widths.(Rng.int g (Array.length widths)) in
      let heavy = Array.init w (fun l -> 5 + (7 * l)) in
      let index = Array.make acc_nz (-1) in
      Array.iteri (fun l z -> index.(z) <- l) heavy;
      let first = match pick with 0 -> 0 | 1 -> w - 1 | 2 -> w | _ -> Rng.int g (w + 1) in
      let stride = Jp_util.Bitset.payload_words w in
      let k = Rng.int g 5 in
      let words = Array.make (1 + (k * stride)) 0 in
      words.(0) <- Rng.int g max_int;
      let from_rows = Array.make w 0 in
      for i = 0 to k - 1 do
        for l = 0 to w - 1 do
          if Rng.int g 3 > 0 then begin
            let at = 1 + (i * stride) + (l / 62) in
            words.(at) <- words.(at) lor (1 lsl (l mod 62));
            from_rows.(l) <- from_rows.(l) + 1
          end
        done
      done;
      let lists =
        List.init (Rng.int g 4) (fun _ ->
            Array.of_list
              (List.sort_uniq compare
                 (List.init (Rng.int g 40) (fun _ ->
                      if Rng.bool g && first < w then heavy.(first + Rng.int g (w - first))
                      else 7 * (1 + Rng.int g 3000)))))
      in
      let count z =
        let witnessed = List.length (List.filter (fun zs -> Array.mem z zs) lists) in
        if index.(z) >= 0 then from_rows.(index.(z)) + witnessed else witnessed
      in
      let ids =
        List.sort_uniq compare
          (List.filter (fun l -> l >= first) (List.init w Fun.id)
           |> List.map (Array.get heavy)
          |> List.append (List.concat_map Array.to_list lists))
      in
      let acc = Row_acc.create ~counts:true acc_nz in
      let fill () =
        Row_acc.start_planes acc ~index ~heavy ~first c;
        for i = 0 to k - 1 do
          Row_acc.saturate_words acc words (1 + (i * stride))
        done;
        let held = Row_acc.close_planes acc in
        List.iter (fun zs -> Row_acc.add_witnesses_from acc zs 0) lists;
        held
      in
      let seeded = List.length (List.filter (fun l -> l >= first && from_rows.(l) > 0) (List.init w Fun.id)) in
      List.for_all
        (fun t ->
          let held = fill () in
          held = seeded
          && Array.to_list (Row_acc.emit_ge acc t) = List.filter (fun z -> count z >= t) ids)
        (List.init c (fun t -> t + 1)))

(* A counting split row holds only the columns its seed row covers: a
   witness for an earlier column is refused, not dropped. *)
let test_row_acc_split_bounds () =
  let acc = Row_acc.create ~counts:true 100 in
  let heavy = [| 10; 20; 30 |] in
  let index = Array.make 100 (-1) in
  Array.iteri (fun l z -> index.(z) <- l) heavy;
  Alcotest.(check int) "seeded" 1 (Row_acc.start_split_counts acc ~index ~heavy [| 0; 2 |]);
  Row_acc.add_witnesses acc [| 5; 20; 30 |];
  let zs, cs = Row_acc.emit_counts acc in
  check "ids" [ 5; 20; 30 ] (Array.to_list zs);
  check "counts" [ 1; 1; 3 ] (Array.to_list cs);
  ignore (Row_acc.start_split_counts acc ~index ~heavy [| 0; 2 |]);
  Alcotest.check_raises "column below the seed row"
    (Invalid_argument "Row_acc.add_witnesses_from: column not held") (fun () ->
      Row_acc.add_witnesses acc [| 10 |]);
  Alcotest.check_raises "seed row wider than the columns"
    (Invalid_argument "Row_acc.start_split_counts: row wider than heavy") (fun () ->
      ignore (Row_acc.start_split_counts acc ~index ~heavy [| 0; 0; 0; 0 |]))

let test_row_acc_no_leak () =
  let acc = Row_acc.create ~counts:true 200 in
  Row_acc.start acc;
  List.iter (fun z -> Row_acc.add_witnesses acc (Array.make 5 z)) [ 3; 61; 62; 199 ];
  check "first row" [ 3; 61; 62; 199 ] (Array.to_list (Row_acc.emit acc));
  (* same words, other bits: nothing of the first row may survive *)
  Row_acc.start acc;
  Row_acc.add_witnesses acc [| 62; 4; 4; 198 |];
  let zs, cs = Row_acc.emit_counts acc in
  check "second row ids" [ 4; 62; 198 ] (Array.to_list zs);
  check "second row counts" [ 2; 1; 1 ] (Array.to_list cs);
  (* a row abandoned before emit leaves nothing behind either *)
  Row_acc.start acc;
  Row_acc.add_all acc [| 0; 100 |];
  Row_acc.start acc;
  check "empty row" [] (Array.to_list (Row_acc.emit acc));
  Row_acc.start acc;
  Row_acc.add_all acc [| 100 |];
  check "fresh row after abandon" [ 100 ] (Array.to_list (Row_acc.emit acc));
  Alcotest.check_raises "id outside the domain"
    (Invalid_argument "index out of bounds") (fun () -> Row_acc.add_all acc [| 200 |])

(* A released accumulator serves the next borrow on this domain that it
   is wide enough for, rows intact; one over more than 2^20 ids is not
   kept. *)
let test_row_acc_borrow () =
  let a = Row_acc.borrow 100 in
  Row_acc.release a;
  let b = Row_acc.borrow 50 in
  Alcotest.(check bool) "a narrower borrow reuses it" true (a == b);
  Row_acc.start b;
  Row_acc.add_all b [| 3; 40; 99 |];
  Row_acc.add_all b [| 40; 41 |];
  Row_acc.add_all b [| 0 |];
  check "rows as from a fresh one" [ 0; 3; 40; 41; 99 ] (Array.to_list (Row_acc.emit b));
  Row_acc.release b;
  Alcotest.(check bool) "a wider borrow does not" false (Row_acc.borrow (1 lsl 20) == b);
  let huge = Row_acc.borrow ((1 lsl 20) + 1) in
  Row_acc.release huge;
  Alcotest.(check bool) "a huge one is not kept" false
    (Row_acc.borrow ((1 lsl 20) + 1) == huge)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  check "same seed same stream" xs ys;
  let c = Rng.create 124 in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_bounds () =
  let g = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int g 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0))

let prop_intsort =
  QCheck.Test.make ~name:"Intsort.sort = Array.sort compare" ~count:500
    QCheck.(small_list int)
    (fun l ->
      let a = Array.of_list l in
      let b = Array.of_list l in
      Jp_util.Intsort.sort a;
      Array.sort compare b;
      a = b)

let prop_intsort_large_values =
  QCheck.Test.make ~name:"Intsort handles large and negative values" ~count:100
    QCheck.(list_of_size (Gen.int_range 40 120) (oneof [ int; int_bound 5 ]))
    (fun l ->
      let a = Array.of_list l in
      let b = Array.of_list l in
      Jp_util.Intsort.sort a;
      Array.sort compare b;
      a = b)

let test_intsort_sub () =
  let a = [| 9; 8; 7; 6; 5; 4 |] in
  Jp_util.Intsort.sort_sub a ~lo:1 ~hi:4;
  Alcotest.(check (list int)) "range sorted" [ 9; 6; 7; 8; 5; 4 ] (Array.to_list a);
  Alcotest.check_raises "bad range" (Invalid_argument "Intsort.sort_sub") (fun () ->
      Jp_util.Intsort.sort_sub a ~lo:2 ~hi:10)

let test_heap_basic () =
  let h = Jp_util.Heap.create () in
  Alcotest.(check int) "empty" 0 (Jp_util.Heap.size h);
  Jp_util.Heap.push h ~priority:5 "five";
  Jp_util.Heap.push h ~priority:1 "one";
  Jp_util.Heap.push h ~priority:3 "three";
  Alcotest.(check int) "size" 3 (Jp_util.Heap.size h);
  Alcotest.(check int) "min" 1 (Jp_util.Heap.min_priority h);
  Alcotest.(check (pair int string)) "pop 1" (1, "one") (Jp_util.Heap.pop_min h);
  Alcotest.(check (pair int string)) "pop 3" (3, "three") (Jp_util.Heap.pop_min h);
  Alcotest.(check (pair int string)) "pop 5" (5, "five") (Jp_util.Heap.pop_min h);
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop_min: empty")
    (fun () -> ignore (Jp_util.Heap.pop_min h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(small_list int)
    (fun l ->
      let h = Jp_util.Heap.create () in
      List.iter (fun p -> Jp_util.Heap.push h ~priority:p ()) l;
      let drained = List.init (List.length l) (fun _ -> fst (Jp_util.Heap.pop_min h)) in
      drained = List.sort compare l)

let test_timer_median () =
  (* Three runs with well-separated busy-wait lengths; the run that was
     actually the median (measured independently here) must be the one
     whose value and time come back. *)
  let busy seconds =
    let t0 = Jp_util.Timer.now () in
    while Jp_util.Timer.now () -. t0 < seconds do () done
  in
  let calls = ref 0 in
  let durations = Array.make 3 0.0 in
  let x, dt, runs =
    Jp_util.Timer.time_runs ~repeats:3 (fun () ->
        let i = !calls in
        incr calls;
        let t0 = Jp_util.Timer.now () in
        busy (0.001 +. (0.004 *. float_of_int i));
        durations.(i) <- Jp_util.Timer.now () -. t0;
        i)
  in
  Alcotest.(check int) "ran exactly repeats times" 3 !calls;
  Alcotest.(check int) "every run's time returned" 3 (List.length runs);
  let order = [| 0; 1; 2 |] in
  Array.sort (fun a b -> compare durations.(a) durations.(b)) order;
  Alcotest.(check int) "value comes from the median-timed run" order.(1) x;
  Alcotest.(check bool)
    "returned time is that run's time" true
    (Float.abs (dt -. durations.(x)) < 0.002);
  Alcotest.check_raises "repeats must be >= 1"
    (Invalid_argument "Timer.time_runs") (fun () ->
      ignore (Jp_util.Timer.time_runs ~repeats:0 (fun () -> ())))

let test_tablefmt () =
  let s =
    Jp_util.Tablefmt.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "contains rule" true (String.length s > 0);
  Alcotest.(check string) "big_int" "1,234,567" (Jp_util.Tablefmt.big_int 1234567);
  Alcotest.(check string) "seconds ms" "12.0ms" (Jp_util.Tablefmt.seconds 0.012)

let suite =
  [
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "bitset ops" `Quick test_bitset_ops;
    Alcotest.test_case "bitset union_into_at" `Quick test_bitset_union_into_at;
    QCheck_alcotest.to_alcotest prop_union_into_at;
    QCheck_alcotest.to_alcotest prop_bitset_matches_model;
    QCheck_alcotest.to_alcotest prop_intersect;
    QCheck_alcotest.to_alcotest prop_union_subset;
    Alcotest.test_case "gallop" `Quick test_gallop;
    Alcotest.test_case "vec" `Quick test_vec;
    QCheck_alcotest.to_alcotest prop_row_acc_emit;
    QCheck_alcotest.to_alcotest prop_row_acc_counts;
    QCheck_alcotest.to_alcotest prop_row_acc_emit_ge;
    Alcotest.test_case "row_acc rows do not leak" `Quick test_row_acc_no_leak;
    Alcotest.test_case "row_acc borrow reuses, huge not kept" `Quick test_row_acc_borrow;
    QCheck_alcotest.to_alcotest prop_row_acc_split;
    QCheck_alcotest.to_alcotest prop_row_acc_split_counts;
    QCheck_alcotest.to_alcotest prop_row_acc_planes;
    Alcotest.test_case "row_acc split columns are bounded" `Quick test_row_acc_split_bounds;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    QCheck_alcotest.to_alcotest prop_intsort;
    QCheck_alcotest.to_alcotest prop_intsort_large_values;
    Alcotest.test_case "intsort sub" `Quick test_intsort_sub;
    Alcotest.test_case "heap basic" `Quick test_heap_basic;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "timer median" `Quick test_timer_median;
    Alcotest.test_case "tablefmt" `Quick test_tablefmt;
  ]
