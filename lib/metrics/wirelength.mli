(** Wire-length measures.

    The paper reports half-perimeter wire length (HPWL): per net, the half
    perimeter of the bounding rectangle of its pins, summed over nets
    (§6).  The quadratic clique length is the objective of eq. (1) and is
    useful for monitoring the solver. *)

(** [hpwl_net circuit ~x ~y n] is the half perimeter of net [n]'s pin
    bounding box. *)
val hpwl_net : Netlist.Circuit.t -> x:float array -> y:float array -> int -> float

(** [hpwl circuit placement] sums {!hpwl_net} over all nets. *)
val hpwl : Netlist.Circuit.t -> Netlist.Placement.t -> float

(** [weighted_hpwl circuit placement ~weights] scales each net's
    half perimeter by [weights.(n)] for net [n]. *)
val weighted_hpwl :
  Netlist.Circuit.t -> Netlist.Placement.t -> weights:float array -> float

(** [quadratic circuit placement] is the clique-model squared wire length:
    for each net of degree k, the sum over its pin pairs of squared
    Euclidean pin distance weighted 1/k (paper §2.1). *)
val quadratic : Netlist.Circuit.t -> Netlist.Placement.t -> float

(** [bbox_net circuit ~x ~y n] is net [n]'s pin bounding box. *)
val bbox_net :
  Netlist.Circuit.t -> x:float array -> y:float array -> int -> Geometry.Rect.t
