(** Network-device interface between a protocol stack and a driver, plus
    the guest driver core every driver flavour shares.

    Every driver flavour — {!Native_driver}, {!Netfront}, and the CDNA
    guest driver — exposes one of these; {!Net_stack} (and {!Netback}, for
    the driver domain) consume it. All callbacks are invoked in the owning
    domain's kernel context; cost accounting happens inside the
    implementations.

    The drivers differ only in how a frame reaches the device. The rest
    lives here once: the transmit queue behind {!queued} devices, and
    payload staging into and read-back from a driver's own buffer pages.
    The descriptor-ring half that {!Native_driver} and the CDNA driver
    also share is {!Ring_driver}. *)

type t

(** [create ~mac ~send ~tx_space] — [send] submits a batch for
    transmission (the device takes ownership), [tx_space] reports how many
    more frames the device can currently accept. *)
val create :
  mac:Ethernet.Mac_addr.t ->
  send:(Ethernet.Frame.t list -> unit) ->
  tx_space:(unit -> int) ->
  t

val mac : t -> Ethernet.Mac_addr.t
val send : t -> Ethernet.Frame.t list -> unit
val tx_space : t -> int

(** {1 Upcalls installed by the consumer} *)

val set_rx_handler : t -> (Ethernet.Frame.t list -> unit) -> unit
val set_tx_done_handler : t -> (int -> unit) -> unit

(** Fires when transmit space becomes available again after exhaustion. *)
val set_writable_hook : t -> (unit -> unit) -> unit

(** {1 Upcall invocation (driver side)} *)

val deliver_rx : t -> Ethernet.Frame.t list -> unit
val notify_tx_done : t -> int -> unit
val notify_writable : t -> unit

(** {1 Driver transmit queue} *)

(** [queued ~mac ~post_kernel ~costs] — a device whose [send] charges
    [costs.driver_tx_per_pkt] per frame as kernel work, then appends the
    frames to the driver queue and pumps it. Frames left queued arm the
    writable upcall (see {!wake_if_writable}). *)
val queued :
  mac:Ethernet.Mac_addr.t ->
  post_kernel:(cost:Sim.Time.t -> (unit -> unit) -> unit) ->
  costs:Os_costs.t ->
  t

(** [attach t ~room ~pump] installs the driver, once, at its creation:
    [room ()] is how many frames the device could take now, so
    [tx_space] is [room ()] less the queued frames; [pump ()] moves
    queued frames toward the device. *)
val attach : t -> room:(unit -> int) -> pump:(unit -> unit) -> unit

val pending : t -> Ethernet.Frame.t Queue.t
val pump : t -> unit

(** Fire the writable upcall if frames were left queued since the last
    wake and [tx_space] is now positive. Drivers call it wherever their
    room can have grown. *)
val wake_if_writable : t -> unit

(** {1 Payload staging}

    Materialized payload bytes in a driver's own buffer pages. The
    scratch buffer for spec-only frames belongs to one [payload], never
    to the module. Both functions are P2-checked by [cdna_lint] like
    [Phys_mem] byte access. *)

type payload

(** With [materialize = false] both functions below do nothing. *)
val payload : Memory.Phys_mem.t -> materialize:bool -> payload

(** [write_payload p ~addr frame] writes the frame's bytes (its data, or
    the bytes its seed generates) at [addr]. *)
val write_payload : payload -> addr:Memory.Addr.t -> Ethernet.Frame.t -> unit

(** [read_payload p ~addr frame] is [frame] carrying the
    [payload_len] bytes at [addr] as its data: [frame] itself (physically)
    when its bytes equal memory there, otherwise [frame] with a copy of
    memory attached as [Other] bytes. *)
val read_payload :
  payload -> addr:Memory.Addr.t -> Ethernet.Frame.t -> Ethernet.Frame.t

(** {1 Counters} *)

val frames_sent : t -> int
val frames_received : t -> int
val reset_counters : t -> unit
