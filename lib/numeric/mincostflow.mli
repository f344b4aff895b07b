(** Minimum-cost assignment by successive shortest paths.

    Johnson potentials with Dijkstra on the reduced costs, sized for the
    assignment problems of the Domino-like detailed placer — the paper's
    final placement step is built on exactly this primitive ("iterative
    placement improvement by network flow methods", [17]).

    The solver runs on the dense bipartite layout (source, agents,
    objects, sink; every capacity one) but makes exactly the choices of
    the generic flow-graph run it replaced, ties included: Bellman–Ford
    over the edges in insertion order (source → agents, agent × object
    row by row, objects → sink), and Dijkstra scanning each node's
    residual edges newest first — source: agents n−1 … 0; agent i:
    objects m−1 … 0, then its reverse source edge; object j: the sink
    edge, then reverse agent edges n−1 … 0; sink: objects m−1 … 0 —
    with a binary heap, 1e-12 tolerances, the reduced cost clamped at
    zero and reverse edges costing the negated forward cost ([-0.] for
    a zero-cost edge). *)

(** Solver buffers (potentials, distances, flows, heap), grown to the
    largest problem seen.  One per concurrent caller: a workspace must
    not be shared between domains. *)
type workspace

(** [workspace ()] is an empty workspace. *)
val workspace : unit -> workspace

(** [assign ws ~costs] solves the rectangular assignment problem: agent
    [i] gets object [j] minimising the total of [costs.(i).(j)], with at
    most one agent per object; requires #agents ≤ #objects.  Returns the
    chosen object per agent.  Allocates only the result once [ws] has
    grown to the problem's size.  Raises [Invalid_argument] on a ragged
    matrix or more agents than objects, and [Failure] when no complete
    assignment has finite cost. *)
val assign : workspace -> costs:float array array -> int array

(** [assignment ~costs] is {!assign} in a fresh workspace. *)
val assignment : costs:float array array -> int array
