(** Recursive-descent parser from a token stream to the located
    {!Ast.deck}.

    Deck grammar (one statement per logical line):

    {v
deck      := (card | directive)* [.end]
card      := Rname  n1 n2 value ["noiseless"]
           | Cname  n1 n2 value
           | Sname  n1 n2 value closed=INT[,INT...] ["noiseless"]
           | Vname  n  wave
           | Iname  n1 n2 wave
           | Nname  n1 n2 (psd=value | "flicker" psd1hz=value fmin=value
                                        fmax=value [spd=value])
           | OPIname plus minus out ugf=value [noise=value]
           | OP1name plus minus out gm=value rout=value cout=value
                                    [noise=value]
wave      := value | "dc" value | "sin" value value value [value]
           | "pwl" (value value)+
directive := .param NAME [=] expr
           | .clock ("duty" period=value duty=value
                    | "two_phase" period=value [gap=value]
                    | "phases" value+)
           | .output node | .temp value
           | .psd [fmin=value] [fmax=value] [points=value] ["log"]
           | .variance | .contrib [f=value] | .transfer [fmin=..] [fmax=..]
                  [points=value] [k=value]
           | .end
value     := [-]NUMBER | "{" expr "}"
    v}

    Element card types are chosen by the (case-insensitive) leading
    letters of the card name, SPICE style.  Raises {!Diag.Error} on any
    syntax problem. *)

val parse : Source.t -> Ast.deck
