(** A complete circuit: cells, nets, placement region and row structure.

    The circuit is immutable once built; cell positions live in separate
    {!Placement.t} values so many candidate placements can coexist.

    Nets are stored once, as one pin table in compressed-row form: net
    [n]'s pins are the pin indices [net_start.(n)] to
    [net_start.(n+1) - 1], in the order the builder gave them, so the
    first is the driver.  A pin [k] sits at
    [(x.(pin_cell.(k)) +. pin_dx.(k), y.(pin_cell.(k)) +. pin_dy.(k))]
    for cell-centre coordinates [x], [y]. *)

type t = private {
  name : string;
  cells : Cell.t array;
  net_start : int array;  (** length [num_nets + 1]; pin ranges by net *)
  pin_cell : int array;  (** per pin, the owning cell *)
  pin_dx : float array;  (** per pin, the offset from the cell centre *)
  pin_dy : float array;
  net_name : string array;
  region : Geometry.Rect.t;  (** the placement area (paper's W × H) *)
  row_height : float;
  cell_nets : int array array;  (** per cell, the ids of incident nets *)
}

(** [make ~name ~cells ~nets ~region ~row_height] validates consistency
    (cell ids equal their indices, pin references in range, positive row
    height, a region at least one row high), copies the nets' pins into
    the pin table and precomputes the cell→nets incidence. *)
val make :
  name:string ->
  cells:Cell.t array ->
  nets:Net.t array ->
  region:Geometry.Rect.t ->
  row_height:float ->
  t

(** [of_pins ~name ~cells ~net_start ~pin_cell ~pin_dx ~pin_dy ~net_name
    ~region ~row_height] adopts a pin table built elsewhere (the text
    reader's), without copying it: the same checks as {!make}, with
    {!Net.check_pins} on every net, then the cell→nets incidence.
    Raises [Invalid_argument] as {!make} does, and on a pin table whose
    lengths or [net_start] do not agree. *)
val of_pins :
  name:string ->
  cells:Cell.t array ->
  net_start:int array ->
  pin_cell:int array ->
  pin_dx:float array ->
  pin_dy:float array ->
  net_name:string array ->
  region:Geometry.Rect.t ->
  row_height:float ->
  t

val num_cells : t -> int

val num_nets : t -> int

(** [num_pins c] is the length of the pin table. *)
val num_pins : t -> int

(** [degree c n] is net [n]'s pin count. *)
val degree : t -> int -> int

(** [net_cells c n] is the list of distinct cell ids on net [n], in
    first-seen order. *)
val net_cells : t -> int -> int list

(** [nets c] is every net as a builder record, for deriving a new
    circuit from [c] (ECO edits, reshaped blocks). *)
val nets : t -> Net.t array

(** [num_movable c] is the number of cells with [fixed = false]. *)
val num_movable : t -> int

(** [movable_area c] is the total area of movable cells, [total_cell_area]
    includes fixed non-pad cells too (pads sit outside the core region and
    are excluded from both). *)
val movable_area : t -> float

val total_cell_area : t -> float

(** [utilization c] is the paper's [s]: total (non-pad) cell area divided
    by the placement-region area. *)
val utilization : t -> float

(** [num_rows c] is the number of standard-cell rows that fit the
    region. *)
val num_rows : t -> int

(** [average_cell_area c] averages over movable cells. *)
val average_cell_area : t -> float

(** [nets_of_cell c id] is the incidence list for a cell. *)
val nets_of_cell : t -> int -> int array
