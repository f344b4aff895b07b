(** Net models: hyperedges to weighted two-point edges.

    The paper models a k-pin net as a clique of k(k−1)/2 edges of weight
    1/k (§2.1).  Large nets make that quadratic in k, so above a
    configurable cap we sample a connected bounded-degree subgraph (a
    Hamiltonian cycle through the pins plus random chords) whose total
    weight is rescaled to the full clique's total (k−1)/2 — the spring
    stiffness seen by the net as a whole is preserved. *)

(** One spring between two pins of a net, as indices into the circuit's
    pin table. *)
type edge = { pin_a : int; pin_b : int; weight : float }

(** [iter_edges ?cap ?rng circuit n f] expands net [n], calling [f pin_a
    pin_b weight] per edge with pin-table indices — the allocation-free emission the hot assembly
    path uses (edge lists were built and immediately consumed there,
    pure GC churn).  [cap] (default 16) is the maximum degree fully
    expanded as a clique; beyond it, the sampled subgraph is used and
    [rng] (default seeded by the net index) drives the chord sampling. *)
val iter_edges :
  ?cap:int ->
  ?rng:Numeric.Rng.t ->
  Netlist.Circuit.t ->
  int ->
  (int -> int -> float -> unit) ->
  unit

(** [edges ?cap ?rng circuit n] is {!iter_edges} materialised as a list,
    in emission order; intended for tests and one-off consumers. *)
val edges :
  ?cap:int -> ?rng:Numeric.Rng.t -> Netlist.Circuit.t -> int -> edge list

(** [total_weight k] is the clique total (k−1)/2 that both expansions
    preserve. *)
val total_weight : int -> float
