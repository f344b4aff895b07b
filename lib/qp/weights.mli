(** Edge-weight adaptation schemes.

    The paper applies "a linearization scheme for adjusting netweights
    [14]" (GORDIAN-L) before each solve: scaling every spring by the
    inverse of its current length makes the quadratic objective behave
    like a linear (half-perimeter-like) one, which is what the reported
    wire lengths measure. *)

(** The scheme an assembly applies to every spring ({!System.rebuild}):
    [Quadratic] keeps the net-model weights, [Linearize eps] multiplies
    each by {!linearize}[ ~eps] of its current pin-to-pin distance.  A
    closed variant rather than a function so the assembly's per-edge
    loop needs no call (and no distance) for the quadratic scheme. *)
type scale = Quadratic | Linearize of float

(** [linearize ~eps ~dist] is [1. /. max dist eps] — GORDIAN-L style
    linearisation; [eps] guards the singularity at zero length and should
    be a small fraction of the region perimeter. *)
val linearize : eps:float -> dist:float -> float

(** [default_eps region] is [1e-3 × (W + H)]. *)
val default_eps : Geometry.Rect.t -> float
