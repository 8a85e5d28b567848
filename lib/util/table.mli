(** Plain-text table and data-series rendering for benches, the CLI and the
    examples.  Output is aligned, markdown-ish, and stable enough to diff. *)

type t
(** A table under construction. *)

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row.  Rows shorter than the header are
    padded with empty cells; longer rows raise [Invalid_argument]. *)

val add_float_row : t -> ?precision:int -> string -> float list -> unit
(** [add_float_row t label xs] appends a row whose first cell is [label]
    and remaining cells are [xs] rendered with [%.*g] (default precision
    6). *)

val render : t -> string
(** [render t] is the formatted table as a string, with a header
    separator. *)

val to_csv : t -> string
(** Comma-separated rendering (cells containing commas or quotes are
    quoted). *)

val save_csv : t -> string -> unit
(** [save_csv t path] writes {!to_csv} to a file. *)

val print : t -> unit
(** [print t] writes [render t] to stdout followed by a newline. *)

val series :
  ?x_label:string -> ?y_labels:string list ->
  float array -> float array list -> string
(** [series xs yss] renders one or more aligned (x, y1, y2, ...) data
    series as a table, for regenerating figures as printable data.  All
    arrays must share [xs]'s length. *)
