(** Static timing analysis: longest combinational path over the placed
    netlist with the paper's half-perimeter Elmore net delays (§5, §6.2).

    The combinational graph has an edge driver → sink for every analysed
    net; sequential cells and pads are path endpoints (paths start at
    their outputs with arrival 0 and end at their inputs).  Nets above
    [max_net_degree] pins are excluded, as the paper does for the avq
    circuits.  The netlist generator guarantees acyclicity; {!analyse}
    raises [Failure] if a combinational cycle slips through. *)

(** Analysis result. *)
type t = {
  max_delay : float;  (** longest path delay, seconds *)
  arrival : float array;  (** per cell: output arrival time *)
  net_slack : float array;
      (** per net: worst slack of its analysed edges; [infinity] for
          excluded or endpoint-free nets *)
  analysed_nets : int;  (** nets that contributed edges *)
}

(** [net_delay params ~length ~sinks] is the Elmore delay of a net with
    half-perimeter [length] driving [sinks] pin loads:
    r·L·(c·L/2 + sinks·C_pin). *)
val net_delay : Params.t -> length:float -> sinks:int -> float

(** One analysed net: the signal leaves driver cell [drv] and reaches
    the [snks] (its sink pins on other cells, in pin order) after
    [delay]. *)
type bundle = { net_id : int; drv : int; snks : int array; delay : float }

(** The combinational graph at a placement and its forward pass. *)
type graph = {
  bundles : bundle array;  (** one per analysed net, last net first *)
  fanout : int list array;  (** per cell, the bundles it drives *)
  order : int array;  (** the cells in the forward pass's order *)
  arrival : float array;  (** per cell: output arrival time *)
  pred : int array;
      (** per non-endpoint cell, the first bundle realising its latest
          input arrival; [-1] when none does *)
  max_delay : float;
}

(** [graph params circuit placement] builds the graph and runs the
    forward pass {!analyse} starts from.  Raises [Failure] on a
    combinational cycle. *)
val graph : Params.t -> Netlist.Circuit.t -> Netlist.Placement.t -> graph

(** [analyse params circuit placement] runs the analysis. *)
val analyse : Params.t -> Netlist.Circuit.t -> Netlist.Placement.t -> t

(** [lower_bound params circuit] is the paper's §6.2 optimisation lower
    bound: the longest path when every net has zero length (pure cell
    delays). *)
val lower_bound : Params.t -> Netlist.Circuit.t -> float
