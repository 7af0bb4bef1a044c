module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs

let memo_of ?cache r =
  match cache with
  | None -> None
  | Some c -> Some (Jp_cache.two_path_memo c ~r ~s:r)

let join_counted ?(domains = 1) ?guard ?cancel ?cache r =
  Jp_obs.span "ssj.mm_counted" (fun () ->
      let memo = memo_of ?cache r in
      Joinproj.Two_path.project_counts ~domains ?guard ?cancel ?memo ~r ~s:r ())

let join ?(domains = 1) ?guard ?cancel ?cache ~c r =
  if c < 1 then invalid_arg "Mm_ssj.join: c must be >= 1";
  Jp_obs.span "ssj.mm_join" (fun () ->
      let memo = memo_of ?cache r in
      Joinproj.Two_path.ssj ~domains ?guard ?cancel ?memo ~c r)
