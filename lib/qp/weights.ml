type scale = Quadratic | Linearize of float

let linearize ~eps ~dist = 1. /. Float.max dist eps

let default_eps region =
  1e-3 *. (Geometry.Rect.width region +. Geometry.Rect.height region)
