(** Uniform 2-D float grids over a rectangular region.

    A grid partitions a {!Rect.t} into [nx × ny] equal bins.  Values live at
    bin centres; {!sample} interpolates bilinearly between them, which is
    how cell-centre forces are read off the bin-resolution force field. *)

type t

(** [create region ~nx ~ny] is a zero-valued grid of [nx] columns and
    [ny] rows over [region].  Raises [Invalid_argument] for non-positive
    dimensions or an empty region. *)
val create : Rect.t -> nx:int -> ny:int -> t

(** Dimensions and geometry. *)
val nx : t -> int

val ny : t -> int

(** [dx g] and [dy g] are the bin pitch in each axis. *)
val dx : t -> float

val dy : t -> float

val region : t -> Rect.t

(** [get g ix iy] reads the bin value; indices are (column, row) and must
    be in range. *)
val get : t -> int -> int -> float

(** [set g ix iy v] writes a bin. *)
val set : t -> int -> int -> float -> unit

(** [add g ix iy v] accumulates into a bin. *)
val add : t -> int -> int -> float -> unit

(** [values g] is the underlying row-major array (row [iy], column [ix]
    at index [iy * nx + ix]).  Mutations are visible in the grid. *)
val values : t -> float array

(** [bin_rect g ix iy] is the rectangle covered by a bin. *)
val bin_rect : t -> int -> int -> Rect.t

(** [bin_center g ix iy] is the centre of a bin. *)
val bin_center : t -> int -> int -> float * float

(** [locate g x y] is the bin containing point ([x], [y]), clamped to the
    grid. *)
val locate : t -> float -> float -> int * int

(** [sample g x y] bilinearly interpolates the grid at a point; points
    outside the bin-centre lattice are clamped to the border values. *)
val sample : t -> float -> float -> float

(** [splat_rect g rect v] distributes the quantity [v] over the bins
    overlapped by [rect] in proportion to the overlap area (v per total
    rect area), i.e. adds [v * overlap/area(rect)] to each touched bin.
    Rectangles are clipped against the grid region; a rectangle fully
    outside contributes nothing.  Degenerate rectangles splat into the
    bin containing their centre. *)
val splat_rect : t -> Rect.t -> float -> unit

(** [fold f init g] folds over bins as [f acc ix iy v]. *)
val fold : ('a -> int -> int -> float -> 'a) -> 'a -> t -> 'a

(** [map_inplace f g] replaces each value [v] at (ix, iy) with
    [f ix iy v]. *)
val map_inplace : (int -> int -> float -> float) -> t -> unit

(** [total g] is the sum of bin values. *)
val total : t -> float

(** [largest_empty_square ?scale g ~threshold] is the side length (in
    world units, using the smaller bin pitch) of the largest square block
    of bins whose every value divided by [scale] (default 1) is
    ≤ [threshold].  Used for the paper's §4.2 stopping criterion, which
    passes the bin area as [scale] to read a per-bin area grid as
    occupancy. *)
val largest_empty_square : ?scale:float -> t -> threshold:float -> float
