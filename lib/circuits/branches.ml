module Netlist = Scnoise_circuit.Netlist

let toggle_to_ground nl ~label ~src ~sum ~c ~r ?(p1 = 0) ?(p2 = 1) () =
  let n = Netlist.node nl (label ^ "_n") in
  Netlist.switch ~name:(label ^ "a") ~closed_in:[ p1 ] nl n src r;
  Netlist.switch ~name:(label ^ "b") ~closed_in:[ p2 ] nl n sum r;
  Netlist.capacitor ~name:(label ^ "C") nl n Netlist.ground c

let plates nl ~label ~cp =
  let na = Netlist.node nl (label ^ "_a") in
  let nb = Netlist.node nl (label ^ "_b") in
  Netlist.capacitor ~name:(label ^ "Cpa") nl na Netlist.ground cp;
  Netlist.capacitor ~name:(label ^ "Cpb") nl nb Netlist.ground cp;
  (na, nb)

let parasitic_insensitive_noninverting nl ~label ~src ~sum ~c ~cp ~r ?(p1 = 0)
    ?(p2 = 1) () =
  let na, nb = plates nl ~label ~cp in
  Netlist.switch ~name:(label ^ "a1") ~closed_in:[ p1 ] nl na src r;
  Netlist.switch ~name:(label ^ "a2") ~closed_in:[ p2 ] nl na Netlist.ground r;
  Netlist.switch ~name:(label ^ "b1") ~closed_in:[ p1 ] nl nb Netlist.ground r;
  Netlist.switch ~name:(label ^ "b2") ~closed_in:[ p2 ] nl nb sum r;
  Netlist.capacitor ~name:(label ^ "C") nl na nb c
