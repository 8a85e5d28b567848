(** Block upper-triangular matrices [[X11, X12], [0, X22]] of order
    [2n], held as their three [n × n] blocks, and their product.

    For finite blocks, {!mul} gives the blocks of the [2n] product
    [Mat.mul] would give, bit for bit: [C11 = X11 Y11],
    [C12 = X11 Y12 + X12 Y22] (one running sum per entry over ascending
    [k], through [X11]'s columns and then [X12]'s) and
    [C22 = X22 Y22]; the zero block is neither stored nor touched.
    {!Vanloan} runs its Padé exponential on these. *)

type t

val x11 : int
(** Block index of [X11]; also {!x12}, {!x22}. *)

val x12 : int

val x22 : int

val create : int -> t
(** [create n] has [n × n] blocks whose entries are unspecified until
    written through {!data} or by {!mul}; every block row is recorded
    empty until {!classify}. *)

val data : t -> float array
(** The blocks, each [n × n] row-major, block [b] from {!offset}: the
    storage itself, written by callers between a {!classify} and the
    products that read it. *)

val offset : t -> int -> int
(** [offset t b] is [b n²], where block [b] starts in {!data}. *)

val classify : t -> unit
(** Records each block row's nonzero support, as {!mul} reads it.  Call
    it after writing an operand's {!data} and before the products that
    read it; {!mul} does not classify its output. *)

val mul : ?left:bool -> t -> t -> t -> unit
(** [mul x y c] writes the blocks of [x y] into [c] (all of them, so a
    zero entry is [+0.0]), reading the supports {!classify} recorded
    for [x] and [y].  With [~left:false], [C11] is not formed and [c]'s
    [X11] block is left as it was.  Bit-identical to the [2n] product
    for finite operands.  Raises [Invalid_argument] on mismatched sizes
    or when [c] is [x] or [y]. *)
