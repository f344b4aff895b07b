(** Minimum-cost assignment by Kuhn–Munkres (the Hungarian method) with
    row and column potentials.

    Sized for the assignment problems of the Domino-like detailed
    placer — the paper's final placement step is built on exactly this
    primitive ("iterative placement improvement by network flow
    methods", [17]).  Agents are inserted one at a time; each insertion
    grows a shortest augmenting path over the dense matrix, so a solve
    costs O(n²m) for n agents and m objects.

    Ties are broken deterministically: each round extends the path to
    the first column (lowest object index) with the least reduced cost.
    The solver cannot stall on float error in the potentials: every
    round adds one more column to the path's tree, so an agent's
    insertion takes at most m rounds. *)

(** Solver buffers (potentials, slacks, the matching), grown to the
    largest problem seen.  One per concurrent caller: a workspace must
    not be shared between domains. *)
type workspace

(** [workspace ()] is an empty workspace. *)
val workspace : unit -> workspace

(** [assign ws ~costs] solves the rectangular assignment problem: agent
    [i] gets object [j] minimising the total of [costs.(i).(j)], with at
    most one agent per object; requires #agents ≤ #objects.  A cost of
    [infinity] forbids the pair.  Returns the chosen object per agent.
    Allocates only the result once [ws] has grown to the problem's
    size.  Raises [Invalid_argument] on a ragged matrix or more agents
    than objects, and [Failure] when no complete assignment has finite
    cost. *)
val assign : workspace -> costs:float array array -> int array

(** [assignment ~costs] is {!assign} in a fresh workspace. *)
val assignment : costs:float array array -> int array
