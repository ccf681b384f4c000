(** The descriptor-ring driver core shared by {!Native_driver} and the
    CDNA guest driver ([Cdna.Driver]).

    Both own a transmit and a receive ring of [tx_slots]/[rx_slots]
    descriptors, one buffer page per slot, and a status page, and both
    process completions with the same interrupt -> NAPI poll loop. They
    differ only in how descriptors reach the ring: written directly
    (native) or through the hypervisor's enqueue hypercall (CDNA). That
    part is the driver's [pump] and [repost_rx]; the rest is here.

    The record is exposed so each driver can advance the producer
    indices it owns. *)

(** The NAPI poll's continuations and hand-off state (internal). *)
type poll_state

type t = {
  dev : Netdev.t;  (** A {!Netdev.queued} device. *)
  post_kernel : cost:Sim.Time.t -> (unit -> unit) -> unit;
  costs : Os_costs.t;
  payload : Netdev.payload;
  mutable hw : Nic.Driver_if.t;  (** Read afresh by every poll. *)
  tx_slots : int;
  rx_slots : int;
  tx_ring_page : Memory.Addr.pfn;
  rx_ring_page : Memory.Addr.pfn;
  status_page : Memory.Addr.pfn;
  tx_pages : Memory.Addr.pfn array;
  rx_pages : Memory.Addr.pfn array;
  mutable ready : bool;
  mutable tx_prod : int;  (** Descriptors the device has been given. *)
  mutable tx_cons_seen : int;
  mutable rx_prod : int;
  mutable repost_rx : int -> unit;
  tx_batch : Memory.Dma_desc.batch;
      (** The driver's transmit descriptor batch, [tx_batch_limit]
          descriptors; a driver that hands it to the device must not
          refill it until the device has taken it. *)
  rx_batch : Memory.Dma_desc.batch;  (** The same, for receive buffers. *)
  mutable poll_scheduled : bool;
  mutable tx_count : int;  (** Transmit completions taken by polls. *)
  mutable rx_count : int;  (** Received frames taken by polls. *)
  mutable polls : int;
  poll : poll_state;
}

(** [create ~name ... ~tx_slots ~rx_slots] checks the slot counts, raising
    [Invalid_argument "<name> tx: slots must be a power of two in
    \[2, 256\]"] (then the same for rx), and allocates, in this order, the
    tx ring, rx ring and status pages and the tx and rx buffer pages. The
    core starts not ready. *)
val create :
  name:string ->
  mac:Ethernet.Mac_addr.t ->
  post_kernel:(cost:Sim.Time.t -> (unit -> unit) -> unit) ->
  costs:Os_costs.t ->
  mem:Memory.Phys_mem.t ->
  materialize:bool ->
  hw:Nic.Driver_if.t ->
  alloc_pages:(int -> Memory.Addr.pfn list) ->
  tx_slots:int ->
  rx_slots:int ->
  t

(** [attach t ~pump ~repost_rx] installs the driver, once, at its
    creation: [pump] moves queued frames toward the ring (see
    {!Netdev.attach}); [repost_rx n] hands [n] receive buffers back to
    the device, starting at [rx_prod]. *)
val attach : t -> pump:(unit -> unit) -> repost_rx:(int -> unit) -> unit

(** Free transmit descriptors: [tx_slots] less those in flight, or 0
    while not ready. *)
val tx_room : t -> int

(** Buffer address of the tx (rx) slot with free-running index [idx]. *)
val tx_page : t -> int -> Memory.Addr.t

val rx_page : t -> int -> Memory.Addr.t

(** The rings are up: mark ready, post every receive buffer, pump the
    transmit queue, and fire the writable upcall. *)
val bring_up : t -> unit

(** [reset t hw] forgets the ring state for a fresh binding to [hw]; the
    counters and the transmit queue survive. Not ready until the next
    {!bring_up}. *)
val reset : t -> Nic.Driver_if.t -> unit

(** Interrupt entry: schedules a poll unless one is pending. A poll takes
    transmit completions (then pumps, upcalls [tx_done] and re-checks
    writability) and up to [rx_poll_budget] received frames (read back,
    reposted, delivered), and polls again while receive work remains. *)
val handle_interrupt : t -> unit
