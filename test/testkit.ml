(* Test-side views of library types: equality, accessors and
   constructors that only tests need, written on each type's public
   surface so the library exports nothing for them. *)

module Intmat = struct
  include Jp_matrix.Intmat

  let get (m : t) i j = m.data.(i).(j)

  let set (m : t) i j x = m.data.(i).(j) <- x

  (* Cell (i, j) of a {!create_upper} triangle: row i stores the columns
     past the diagonal. *)
  let upper_get (m : t) i j = if j > i then m.data.(i).(j - i - 1) else 0

  let dims (m : t) = (m.rows, m.cols)

  let of_arrays data =
    let rows = Array.length data in
    let cols = if rows = 0 then 0 else Array.length data.(0) in
    let m = create ~rows ~cols in
    Array.iteri (fun i r -> Array.iteri (fun j v -> set m i j v) r) data;
    m

  let iter_nonzero (m : t) f =
    Array.iteri
      (fun i r -> Array.iteri (fun j v -> if v <> 0 then f i j v) r)
      m.data

  let equal (a : t) (b : t) = a.rows = b.rows && a.cols = b.cols && a.data = b.data

  (* The naive integer product (i-k-j, skipping zero cells of [a]): the
     reference every blocked and tiled product is checked against. *)
  let naive_mul (a : t) (b : t) =
    let c = create ~rows:a.rows ~cols:b.cols in
    for i = 0 to a.rows - 1 do
      let dst = c.data.(i) in
      for k = 0 to a.cols - 1 do
        let x = a.data.(i).(k) in
        if x <> 0 then begin
          let src = b.data.(k) in
          for j = 0 to b.cols - 1 do
            dst.(j) <- dst.(j) + (x * src.(j))
          done
        end
      done
    done;
    c
end

module Boolmat = struct
  include Jp_matrix.Boolmat

  let row_list_of bits =
    let acc = ref [] in
    Jp_util.Bitset.iter (fun j -> acc := j :: !acc) bits;
    !acc

  let row_list m i = row_list_of (row m i)

  let equal a b =
    rows a = rows b
    && cols a = cols b
    && List.for_all (fun i -> row_list a i = row_list b i) (List.init (rows a) Fun.id)

  (* The 0/1 integer matrix of [m], transposed when [t]. *)
  let to_intmat ?(t = false) m =
    let r, c = if t then (cols m, rows m) else (rows m, cols m) in
    let im = Intmat.create ~rows:r ~cols:c in
    for i = 0 to rows m - 1 do
      iter_row m i (fun j -> if t then Intmat.set im j i 1 else Intmat.set im i j 1)
    done;
    im

  (* References over {!Intmat.naive_mul}: the boolean product is the
     support of the 0/1 integer product, and the count product of [a]
     and [b] (both over the same inner dimension) is a · bᵀ. *)
  let mul_reference a b =
    let c = Intmat.naive_mul (to_intmat a) (to_intmat b) in
    let m = create ~rows:(rows a) ~cols:(cols b) in
    Intmat.iter_nonzero c (fun i j _ -> set m i j);
    m

  let count_reference a b = Intmat.naive_mul (to_intmat a) (to_intmat ~t:true b)
end

let strictly_increasing a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

(* A row's counted emits in fresh arrays, as the engines' flat emits
   would append them. *)
module Row_acc = struct
  include Jp_util.Row_acc

  let emit_counts t =
    let zs = Jp_util.Vec.create () and counts = Jp_util.Vec.create () in
    ignore (emit_counts_into t zs counts);
    (Jp_util.Vec.to_array zs, Jp_util.Vec.to_array counts)

  let emit_ge t c =
    let zs = Jp_util.Vec.create () in
    ignore (emit_ge_into t c zs);
    Jp_util.Vec.to_array zs
end

module Pairs = struct
  include Jp_relation.Pairs

  (* The checked constructor: engine rows must pass it. *)
  let of_rows rows =
    Array.iter
      (fun r ->
        if not (strictly_increasing r) then
          invalid_arg "Pairs.of_rows: row not strictly increasing")
      rows;
    of_rows_unchecked rows

  let to_list t =
    let acc = ref [] in
    iter (fun x z -> acc := (x, z) :: !acc) t;
    List.rev !acc

  (* The flat layout as the accessors show it: the row offsets and every
     id in row order.  Two results with the same layout hold the same
     offsets and the same packed ids. *)
  let layout t =
    let n = src_count t in
    let offsets = Array.make (n + 1) 0 in
    for x = 0 to n - 1 do
      offsets.(x + 1) <- offsets.(x) + row_length t x
    done;
    (offsets, List.map snd (to_list t))
end

module Counted_pairs = struct
  include Jp_relation.Counted_pairs

  let rows t = Array.init (src_count t) (row t)

  let of_rows rows =
    Array.iter
      (fun (zs, counts) ->
        if Array.length zs <> Array.length counts then
          invalid_arg "Counted_pairs.of_rows: length mismatch";
        if not (strictly_increasing zs) then
          invalid_arg "Counted_pairs.of_rows: row not strictly increasing";
        Array.iter
          (fun c -> if c <= 0 then invalid_arg "Counted_pairs.of_rows: count <= 0")
          counts)
      rows;
    of_rows_unchecked rows

  let triples t =
    let acc = ref [] in
    iter (fun x z c -> acc := (x, z, c) :: !acc) t;
    List.rev !acc

  let count t = List.length (triples t)

  let total_witnesses t = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (triples t)

  let get t x z =
    match List.find_opt (fun (x', z', _) -> x = x' && z = z') (triples t) with
    | Some (_, _, c) -> c
    | None -> 0

  let filter_ge t c =
    of_rows_unchecked
      (Array.map
         (fun (zs, counts) ->
           let keep = List.filter (fun i -> counts.(i) >= c) (List.init (Array.length zs) Fun.id) in
           ( Array.of_list (List.map (fun i -> zs.(i)) keep),
             Array.of_list (List.map (fun i -> counts.(i)) keep) ))
         (rows t))

  let to_pairs t = Jp_relation.Pairs.of_rows_unchecked (Array.map fst (rows t))

  (* The ordered-SSJ enumeration order: decreasing multiplicity, ties by
     (x, z). *)
  let sorted_desc t =
    Array.of_list
      (List.stable_sort (fun (_, _, a) (_, _, b) -> Int.compare b a) (triples t))

  (* Trailing empty rows do not make two results differ. *)
  let equal a b = triples a = triples b

  (* {!Pairs.layout} with the multiplicities. *)
  let layout t =
    let n = src_count t in
    let offsets = Array.make (n + 1) 0 in
    for x = 0 to n - 1 do
      offsets.(x + 1) <- offsets.(x) + Array.length (fst (row t x))
    done;
    (offsets, List.map (fun (_, z, c) -> (z, c)) (triples t))
end

(* A pool chunk hook that spins a seeded, varying number of times at
   every chunk claim, so worker domains interleave their chunks
   differently on every call. *)
let seeded_yields seed =
  let claims = Atomic.make 0 in
  fun () ->
    let k = Atomic.fetch_and_add claims 1 in
    for _ = 1 to ((k + seed) * 2654435761) land 1023 do
      Domain.cpu_relax ()
    done

(* [f ()] under {!seeded_yields} [seed] as the pool's chunk hook. *)
let under_yields seed f =
  Jp_parallel.Pool.set_fault_hook (Some (seeded_yields seed));
  Fun.protect ~finally:(fun () -> Jp_parallel.Pool.set_fault_hook None) f

(* The test binary's machine: a deterministic model, so optimizer
   decisions don't depend on the noisy calibration micro-benchmarks.  A
   count word costs more than a boolean word, as on every measured
   machine (the pinned benchmark record prices them 1.5e-8 and 9e-9).
   Set when this module initializes, before any suite runs. *)
let fixed_machine =
  {
    Jp_matrix.Cost.ts = 1e-9;
    tm = 2e-8;
    ti = 6e-9;
    count_word = 2e-9;
    bool_word = 1.5e-9;
    cores = 4;
  }

let () = Jp_matrix.Cost.set_machine fixed_machine

(* [f ()] with [m] as the one machine every plan, gate and kernel
   choice reads ({!Jp_matrix.Cost.machine}); the previous machine is
   restored afterwards, also when [f] raises. *)
let with_machine m f =
  let prev = Jp_matrix.Cost.machine () in
  Jp_matrix.Cost.set_machine m;
  Fun.protect ~finally:(fun () -> Jp_matrix.Cost.set_machine prev) f

module Relation = struct
  include Jp_relation.Relation

  let mem r a b = a < src_count r && Array.mem b (adj_src r a)

  let to_edges r =
    let acc = ref [] in
    iter (fun x y -> acc := (x, y) :: !acc) r;
    Array.of_list (List.rev !acc)

  (* Same tuple sets and same declared id spaces. *)
  let equal a b =
    src_count a = src_count b
    && dst_count a = dst_count b
    && to_edges a = to_edges b
end

module Tuples = struct
  include Jp_relation.Tuples

  let to_list t =
    let acc = ref [] in
    iter (fun tuple -> acc := Array.to_list tuple :: !acc) t;
    List.sort compare !acc

  let equal a b = count a = count b && to_list a = to_list b
end

module Inject = struct
  include Jp_adaptive.Inject

  let uniform f = { out_factor = f; mm_factor = f }

  let mm_only f = { none with mm_factor = f }
end

module Json = struct
  include Jp_obs.Json

  let to_list_opt = function List items -> Some items | _ -> None

  let to_int_opt = function Int n -> Some n | _ -> None

  let to_string_opt = function String s -> Some s | _ -> None
end

module Cq = struct
  include Jp_query.Cq

  let term_to_string = function Var v -> v | Const k -> string_of_int k

  (* Prints in the concrete syntax [parse] reads back. *)
  let to_string q =
    let atom_to_string { relation; args = a, b } =
      Printf.sprintf "%s(%s, %s)" relation (term_to_string a) (term_to_string b)
    in
    Printf.sprintf "Q(%s) :- %s" (String.concat ", " q.head)
      (String.concat ", " (List.map atom_to_string q.body))

  let equal (a : t) (b : t) = a = b
end

module Hypergraph = struct
  include Jp_query.Hypergraph

  let is_acyclic q = join_tree q <> None
end

module Bag = struct
  include Jp_query.Bag

  let to_sorted_list t = List.sort compare (List.map Array.to_list (rows t))
end
