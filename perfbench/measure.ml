(* Clock, order statistics and result checksums shared by the
   workloads. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs

(* Monotonic seconds: never steps with the wall clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ms s = s *. 1e3

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Samples a percentile needs so that at least ten lie beyond it. *)
let samples_for pct = 10 * 100 / (100 - pct)

(* Nearest-rank percentile, [pct] in whole percent. *)
let percentile pct a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = ((pct * n) + 99) / 100 in
    s.(max 0 (rank - 1))

(* A result checksum: the number of output tuples and an
   order-independent sum of their mixed hashes.  The oracle and the
   measured engine must agree on both. *)
type sum = { count : int; hash : int }

let mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x5bd1e9955bd1e99 in
  x lxor (x lsr 29)

let pairs_sum p =
  let count = ref 0 and hash = ref 0 in
  Pairs.iter
    (fun x z ->
      incr count;
      hash := !hash + mix ((x lsl 31) lxor z))
    p;
  { count = !count; hash = !hash }

(* Pairs (x, z), x < z, with at least [c] witnesses: the set-similarity
   join computed from an independent counted expansion. *)
let upper_pairs_sum ~c cp =
  let count = ref 0 and hash = ref 0 in
  Counted_pairs.iter
    (fun x z k ->
      if x < z && k >= c then begin
        incr count;
        hash := !hash + mix ((x lsl 31) lxor z)
      end)
    cp;
  { count = !count; hash = !hash }

let tuples_sum t =
  let count = ref 0 and hash = ref 0 in
  Jp_relation.Tuples.iter
    (fun tuple ->
      incr count;
      hash := !hash + mix (Array.fold_left (fun acc v -> mix ((acc * 1_000_003) + v)) 17 tuple))
    t;
  { count = !count; hash = !hash }

let bool_sum b = { count = (if b then 1 else 0); hash = 0 }

(* One int standing for a checksum, for results that travel through the
   service and its cache. *)
let to_int s = mix s.count + s.hash

(* Expected checksums travel from the oracle process to the measuring
   one as "count hash" lines, one per query in query-list order. *)
let write_sums path sums =
  Out_channel.with_open_text path (fun oc ->
      Array.iter (fun s -> Printf.fprintf oc "%d %d\n" s.count s.hash) sums)

let read_sums path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> Scanf.sscanf l "%d %d" (fun count hash -> { count; hash }))
  |> Array.of_list

(* Host-speed sentinel.  On a shared host, other tenants' memory
   traffic slows the engines' dedup-heavy inner loops by 1.4-1.8x, in
   bursts of seconds and in states that last many minutes, while a
   register-only loop stays within a few percent.  This fixed loop
   (stamp-vector dedup over an L2-resident array, the engines' access
   pattern) slows by about as much as the engine workloads over such a
   state, so the benchmark times it next to their rounds and next to
   every set-up, and reports those times scaled to a quiet host: a
   measured time t next to a sentinel reading s becomes
   t × min(1, baseline / s), where baseline is the sentinel's quiet time pinned
   in machine.json.  Raw times go to the result file.  served-open's
   small, cache-resident queries slow much less than the sentinel, so
   its times are reported unscaled. *)
module Sentinel = struct
  let slots = 16384
  let stamps = Array.make slots 0
  let order = Array.init 65536 (fun i -> (i * 7919) land (slots - 1))
  let pass = ref 0

  let run () =
    let hits = ref 0 in
    for _ = 1 to 40 do
      incr pass;
      let stamp = !pass in
      for k = 0 to Array.length order - 1 do
        let c = Array.unsafe_get order k in
        if Array.unsafe_get stamps c <> stamp then Array.unsafe_set stamps c stamp else incr hits
      done
    done;
    ignore (Sys.opaque_identity !hits)

  (* Seconds one sentinel run takes now. *)
  let time () = snd (time run)

  (* The median of five readings. *)
  let reading () = median (Array.init 5 (fun _ -> time ()))

  (* The sentinel's quiet-host time, pinned in machine.json. *)
  let baseline = ref nan

  (* Factor that scales a time measured next to reading [s] to the quiet
     host.  The sentinel also has states faster than the quiet time in
     which the engines are no faster, so the factor never exceeds 1. *)
  let scale s = Float.min 1. (!baseline /. s)

  (* A measurement whose readings before and after differ by more than
     this factor saw a burst start or end inside it, where the scaling
     is least accurate. *)
  let burst_factor = 1.3
end

(* A [Jp_obs] counter's current value, by name. *)
let obs_counter name = Option.value ~default:0 (List.assoc_opt name (Jp_obs.counter_values ()))

(* Growable float sample. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end
