(** Growable ring-buffer FIFO.

    The datapath's per-object queues (boosted vcpus, staged transmit
    metadata, receive backlogs and completions) push and pop on every
    frame. [Stdlib.Queue] allocates a cell per push; this ring allocates
    only when it doubles, so a queue that has reached its working depth
    allocates nothing. Popped slots are overwritten with [dummy], so the
    ring does not retain popped values. Several rings pushed and popped
    in lockstep stand in for a FIFO of tuples without boxing one per
    element. *)

type 'a t

(** [create ~dummy] is an empty FIFO. [dummy] fills unused slots and is
    never returned. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** Oldest element, removed.
    @raise Invalid_argument if the FIFO is empty. *)
val pop : 'a t -> 'a

(** [get t i] is the [i]-th oldest element (0 is the next {!pop}),
    without removing it.
    @raise Invalid_argument if [i] is not in [\[0, length t)]. *)
val get : 'a t -> int -> 'a

val clear : 'a t -> unit

(** Oldest first. *)
val iter : ('a -> unit) -> 'a t -> unit

(** Oldest first. *)
val to_list : 'a t -> 'a list
