(* FIG3a/FIG3b: matrix-multiplication scalability, plus the Table-1
   machine-constant calibration the optimizer relies on. *)

module Boolmat = Jp_matrix.Boolmat
module Cost = Jp_matrix.Cost
module Tablefmt = Jp_util.Tablefmt
module Tile = Jp_matrix.Tile

let random_boolmat seed ~rows ~cols ~density =
  let g = Jp_util.Rng.create seed in
  let m = Boolmat.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Jp_util.Rng.float g 1.0 < density then Boolmat.set m i j
    done
  done;
  m

(* FIG3a: running time vs matrix dimension, single core (paper: Eigen up
   to 10000^2; here the boolean and count products of Tile, the
   engines' kernel, at its default config). *)
let fig3a cfg =
  Bench_common.section "FIG3a: matrix multiplication vs dimension (1 core)";
  let dims = [ 250; 500; 1000; 1500; 2000; 2500 ] in
  let rows =
    List.map
      (fun n ->
        let a = random_boolmat 1 ~rows:n ~cols:n ~density:0.5 in
        let b = random_boolmat 2 ~rows:n ~cols:n ~density:0.5 in
        let sa = Tile.Source.of_boolmat a and sb = Tile.Source.of_boolmat b in
        let t_bool =
          Bench_common.time cfg (fun () -> Tile.mul (Tile.config ()) sa sb)
        in
        let t_count =
          Bench_common.time cfg (fun () ->
              Tile.count_product (Tile.config ()) sa sb)
        in
        [
          string_of_int n;
          Tablefmt.seconds t_bool;
          Tablefmt.seconds t_count;
          Printf.sprintf "%.2f"
            (1e-9 *. Cost.lemma1 ~u:n ~v:n ~w:n /. 62.0);
        ])
      dims
  in
  Tablefmt.print ~header:[ "n"; "boolean MM"; "count MM"; "n^3/62 (1e9)" ] ~rows;
  Bench_common.note
    "paper shape: near-quadratic growth for small n, cubic beyond cache; the";
  Bench_common.note "bit-packed kernels show the same transition."

(* FIG3b: construction + multiplication vs cores.  The multiplication
   runs through Tile, the engines' kernel, whose output tiles are the
   parallel unit. *)
let fig3b cfg =
  Bench_common.section "FIG3b: matrix multiplication vs cores";
  let n = 1500 in
  let adj =
    let g = Jp_util.Rng.create 3 in
    Array.init n (fun _ ->
        let v = Jp_util.Vec.create () in
        for j = 0 to n - 1 do
          if Jp_util.Rng.float g 1.0 < 0.5 then Jp_util.Vec.push v j
        done;
        Jp_util.Vec.to_array v)
  in
  let rows =
    List.map
      (fun cores ->
        let construct = ref 0.0 in
        let t_total =
          Bench_common.time cfg (fun () ->
              let c0 = Jp_util.Timer.now () in
              let a = Boolmat.of_adjacency ~rows:n ~cols:n (fun i -> adj.(i)) in
              let b = Boolmat.of_adjacency ~rows:n ~cols:n (fun i -> adj.(i)) in
              construct := Jp_util.Timer.now () -. c0;
              Tile.mul ~domains:cores (Tile.config ())
                (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b))
        in
        [
          string_of_int cores;
          Tablefmt.seconds !construct;
          Tablefmt.seconds (t_total -. !construct);
        ])
      cfg.Bench_common.cores
  in
  Tablefmt.print ~header:[ "cores"; "construction"; "multiplication" ] ~rows;
  Bench_common.note "paper shape: near-linear multiply speedup, flat construction.";
  if Jp_parallel.Pool.available_cores () = 1 then
    Bench_common.note
      "NOTE: this container exposes 1 CPU; domains are oversubscribed, so the curve is flat here."

(* TAB1: calibrated machine constants (Section 5, Table 1).  The kernel
   constants are seconds per unit of an engine work counter; the divisor
   column names it and gives its count over one probe run. *)
let calibration _cfg =
  Bench_common.section "TAB1: calibrated machine constants";
  let m = Cost.calibrate ~quick:false () in
  let over c =
    let p = Cost.probe ~quick:false c in
    Printf.sprintf "%s = %d" p.Cost.counter p.Cost.work
  in
  Tablefmt.print
    ~header:[ "constant"; "meaning"; "divisor"; "value" ]
    ~rows:
      [
        [ "Ts"; "sequential access (s/elem)"; "-"; Printf.sprintf "%.2e" m.Cost.ts ];
        [ "Tm"; "allocation (s/32B)"; "-"; Printf.sprintf "%.2e" m.Cost.tm ];
        [
          "TI"; "s per expanded join tuple"; over Cost.Ti; Printf.sprintf "%.2e" m.Cost.ti;
        ];
        [
          "count MM";
          "s per 62-bit AND+popcount word";
          over Cost.Count_word;
          Printf.sprintf "%.2e" m.Cost.count_word;
        ];
        [
          "bool MM";
          "s per 62-bit OR word";
          over Cost.Bool_word;
          Printf.sprintf "%.2e" m.Cost.bool_word;
        ];
        [ "cores"; "available"; "-"; string_of_int m.Cost.cores ];
      ]
