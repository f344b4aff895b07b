(** Items grouped by key, in a fixed order the finishing passes'
    results depend on.

    The passes once grouped items in a [Hashtbl] created with [size]
    buckets, prepending each item to its key's list ([Hashtbl.replace]),
    and walked the lists with [Hashtbl.iter].  {!by_key} gives the same
    groups in the same order without building the lists: keys in that
    table's iteration order, and within a group the newest item first. *)

type t = {
  order : int array;  (** group ids in the order [Hashtbl.iter] visits their keys *)
  start : int array;  (** group [g] is [items.(start.(g))] … [items.(start.(g + 1) - 1)] *)
  items : int array;  (** item indices, newest first within each group *)
}

(** [by_key ~size n key] groups the items [0 … n − 1] by [key i]. *)
val by_key : size:int -> int -> (int -> 'a) -> t
