(* Deck texts the workloads send: the deck files under [decks/], the
   generated ladder family, and seeded layout twins of both.

   Every request carries deck text, so the front end (lexer, parser,
   elaborator, ERC) does real work on every request.  A layout twin
   keeps the cards and their order, hence the canonical hash and every
   output bit, but changes the bytes the lexer sees: comment lines and
   runs of blanks between tokens.  The seed picks the twins, so a seed
   changes the inputs without changing the work or the answers. *)

let read ~dir name =
  In_channel.with_open_bin
    (Filename.concat (Filename.concat dir "decks") name)
    In_channel.input_all

(* Node capacitance of the ladder family; every capacitor is grounded,
   so the periodic covariance is kT C^-1 at every instant and the output
   variance is exactly kT / ladder_c (equipartition). *)
let ladder_c = 100e-12

(* The switched RC ladder with a parasitic branch on every node, values
   of [Sc_ladder.with_parasitics]: [stages] capacitor nodes chained
   through 1 kohm, grounded through a phase-0 switch, each feeding a
   tenth of its capacitance through ten times the series resistance —
   [2 * stages] states. *)
let ladder ~stages ~points =
  let b = Buffer.create 8192 in
  let p fmt = Printf.bprintf b fmt in
  p "* Switched RC ladder, %d stages with parasitics (%d states).\n\n" stages
    (2 * stages);
  p ".param r   = 1k\n.param c   = 100p\n.param rsw = 1k\n";
  p ".param cp  = {c / 10}\n.param rp  = {10 * r}\n.param T   = 10u\n\n";
  let node i = if i = stages then "nlast" else Printf.sprintf "n%d" i in
  p "S0 %s 0 {rsw} closed=0\n" (node 1);
  for i = 1 to stages do
    if i > 1 then p "R%d %s %s {r}\n" i (node (i - 1)) (node i);
    p "C%d %s 0 {c}\nRP%d %s p%d {rp}\nCP%d p%d 0 {cp}\n" i (node i) i
      (node i) i i i
  done;
  p "\n.clock duty period={T} duty=0.5\n.output nlast\n";
  p ".psd fmin=100 fmax=40k points=%d log\n.end\n" points;
  Buffer.contents b

(* [text] with its [.psd] directive replaced (smoke runs shrink sweeps). *)
let with_psd text directive =
  String.split_on_char '\n' text
  |> List.map (fun l ->
         if String.starts_with ~prefix:".psd" l then directive else l)
  |> String.concat "\n"

(* Blank-separated tokens of a card, keeping [{...}] expressions whole. *)
let tokens line =
  let out = ref [] and cur = Buffer.create 16 and depth = ref 0 in
  let flush () =
    if Buffer.length cur > 0 then begin
      out := Buffer.contents cur :: !out;
      Buffer.clear cur
    end
  in
  String.iter
    (fun ch ->
      match ch with
      | (' ' | '\t') when !depth = 0 -> flush ()
      | _ ->
          if ch = '{' then incr depth else if ch = '}' then decr depth;
          Buffer.add_char cur ch)
    line;
  flush ();
  List.rev !out

let separators = [| " "; "  "; "\t"; " \t "; "     " |]

let relayout rng text =
  let b = Buffer.create (2 * String.length text) in
  List.iter
    (fun line ->
      let card = line <> "" && line.[0] <> '*' in
      if card && line <> ".end" && Random.State.int rng 3 = 0 then
        Printf.bprintf b "* note %d\n" (Random.State.int rng 10_000);
      if card then
        List.iteri
          (fun i tok ->
            if i > 0 then
              Buffer.add_string b
                separators.(Random.State.int rng (Array.length separators));
            Buffer.add_string b tok)
          (tokens line)
      else Buffer.add_string b line;
      Buffer.add_char b '\n')
    (String.split_on_char '\n' text);
  Buffer.contents b

(* [n] seeded layout twins of [text]. *)
let twins ~seed ~salt ~n text =
  let rng = Random.State.make [| seed; salt |] in
  Array.init n (fun _ -> relayout rng text)
