module Mat = Scnoise_linalg.Mat
module SRC = Scnoise_circuits.Switched_rc
module INT = Scnoise_circuits.Sc_integrator

let scalar ~pole ~var ~period =
  Dt_system.make
    ~ad:(Mat.of_arrays [| [| pole |] |])
    ~bd:(Mat.of_arrays [| [| sqrt var |] |])
    ~c:[| 1.0 |] ~period

let switched_rc (p : SRC.params) =
  let kt = Scnoise_util.Const.kt ~temperature:p.SRC.temperature () in
  let a = exp (-.p.SRC.duty *. p.SRC.period /. (p.SRC.r *. p.SRC.c)) in
  scalar ~pole:a ~var:(kt /. p.SRC.c *. (1.0 -. (a *. a))) ~period:p.SRC.period

let sc_integrator (p : INT.params) =
  let kt = Scnoise_util.Const.kt ~temperature:p.INT.temperature () in
  let per_cap c = 2.0 *. kt /. c *. ((c /. p.INT.ci) ** 2.0) in
  let q = per_cap p.INT.cs +. (if p.INT.cd > 0.0 then per_cap p.INT.cd else 0.0) in
  scalar ~pole:(INT.dt_pole p) ~var:q ~period:(1.0 /. p.INT.clock_hz)
