(** Dense complex vectors.

    Stored as a flat [float array] with interleaved re/im parts
    ([re_0; im_0; re_1; im_1; ...]), which OCaml keeps unboxed — the
    hot kernels of the MFT sweep never allocate a [Complex.t] record
    per element.  The API still speaks {!Cx.t} through {!get}/{!set};
    {!data} exposes the raw buffer for kernels that want to stream
    over it. *)

type t

val dim : t -> int
(** Number of complex entries. *)

val create : int -> t
(** Zero vector. *)

val init : int -> (int -> Cx.t) -> t

val of_real : Vec.t -> t

val of_array : Cx.t array -> t

val to_array : t -> Cx.t array

val real : t -> Vec.t

val imag : t -> Vec.t

val copy : t -> t

val get : t -> int -> Cx.t

val set : t -> int -> Cx.t -> unit

val scale_re : float -> t -> t

val norm_inf : t -> float

val max_abs_diff : t -> t -> float

(** {1 Panels — blocked multi-RHS storage}

    A panel is [width] complex vectors of a common dimension packed
    column-major over the block: entry (state [i], column [b]) lives at
    [2 * (i * width + b)] (re) / [2 * (i * width + b) + 1] (im).  All
    [width] columns of one state are adjacent, so a blocked kernel
    ([Ctrapezoid.step_schur_into]) runs [width] right-hand sides over
    one shared matrix in a single call.  Each column of a blocked
    kernel's result is bitwise identical to the corresponding
    single-RHS call. *)

type panel = float array
(** Raw interleaved storage, length [2 * dim * width]. *)

val panel_create : dim:int -> width:int -> panel
(** Zero panel of [width] columns of dimension [dim]. *)

val panel_set_col : t -> panel -> width:int -> col:int -> unit
(** Scatter a vector into column [col] of the panel. *)

val panel_get_col : panel -> width:int -> col:int -> into:t -> unit
(** Gather column [col] of the panel into a vector. *)

val panel_fill_zero : panel -> unit

(** {1 Raw storage} *)

val data : t -> float array
(** The interleaved backing buffer itself (length [2 * dim], not a
    copy): entry [i] lives at [(data v).(2*i)] (re) and
    [(data v).(2*i + 1)] (im). *)

val of_data : float array -> t
(** Adopt an interleaved buffer (length must be even; not copied). *)
