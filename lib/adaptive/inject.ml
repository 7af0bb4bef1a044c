type t = { out_factor : float; mm_factor : float }

let none = { out_factor = 1.0; mm_factor = 1.0 }

let is_none t = t.out_factor = 1.0 && t.mm_factor = 1.0

let check name f =
  if not (Float.is_finite f) || f <= 0.0 then
    invalid_arg (Printf.sprintf "Inject.%s: factor must be finite and positive" name)

let out_only f =
  check "out_only" f;
  { none with out_factor = f }

let out t est =
  if t.out_factor = 1.0 then est
  else max 1 (int_of_float (Float.round (float_of_int (max 1 est) *. t.out_factor)))
