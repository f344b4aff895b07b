(** Nets as built: the builder input to {!Circuit.make}.

    A pin references a cell by index plus an offset of the pin location
    from the cell centre.  By convention [pins.(0)] is the driver, which
    gives the timing analysis its signal direction; purely geometric code
    ignores the convention.  {!Circuit.make} copies the pins into the
    circuit's flat pin table, which every reader uses; no [Net.t] is
    kept past it. *)

type pin = { cell : int; dx : float; dy : float }

type t = {
  id : int;  (** index into the netlist's net array *)
  name : string;
  pins : pin array;
}

(** [make ~id ~name pins] builds a net.  Raises [Invalid_argument] when
    fewer than two pins are given or two pins repeat the same cell at the
    same offset. *)
val make : id:int -> name:string -> pin array -> t

(** [check_pins ~cell ~dx ~dy lo hi] applies {!make}'s checks, with its
    [Invalid_argument] messages, to the pins [lo .. hi - 1] of a flat
    pin table. *)
val check_pins :
  cell:int array -> dx:float array -> dy:float array -> int -> int -> unit
