(** Reusable switched-capacitor branch builders.

    The evaluation circuits compose two standard two-phase branches;
    centralising them keeps the topologies declarative and consistent.
    Phase conventions: phase index [p1] samples, [p2] delivers. *)

module Netlist = Scnoise_circuit.Netlist

val toggle_to_ground :
  Netlist.t -> label:string -> src:Netlist.node -> sum:Netlist.node ->
  c:float -> r:float -> ?p1:int -> ?p2:int -> unit -> unit
(** Inverting SC-resistor branch: a grounded capacitor whose hot plate
    toggles between [src] (sampling, phase [p1], default 0) and [sum]
    (delivery, phase [p2], default 1).  Used as input, damping and
    feedback branch; delivering into a virtual ground [sum] transfers
    [-C v_src] per cycle. *)

val parasitic_insensitive_noninverting :
  Netlist.t -> label:string -> src:Netlist.node -> sum:Netlist.node ->
  c:float -> cp:float -> r:float -> ?p1:int -> ?p2:int -> unit -> unit
(** Floating capacitor sampled across [(src, ground)] in phase [p1] and
    delivered across [(ground, sum)] in phase [p2]; transfers
    [+C v_src] per cycle into a virtual-ground [sum].  [cp] anchors both
    plates with explicit parasitics (the compiler rejects truly floating
    capacitor networks). *)
