let of_power p = if p <= 0.0 then neg_infinity else 10.0 *. log10 p

let to_power d = 10.0 ** (d /. 10.0)

let of_amplitude a =
  let a = abs_float a in
  if a = 0.0 then neg_infinity else 20.0 *. log10 a

let delta p1 p2 = of_power p1 -. of_power p2
