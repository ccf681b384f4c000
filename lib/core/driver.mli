(** CDNA guest device driver.

    The paravirtualized driver of paper section 3: it interacts with its
    private hardware context {e exactly} as a native driver would — the
    two share {!Guestos.Ring_driver}: rings, doorbell PIO writes (here into
    its mapped mailbox partition), interrupt-driven completion polling —
    except that descriptors are enqueued through the
    hypervisor's protected {!Hyp.enqueue} hypercall (which validates, pins
    and sequence-stamps them), batched per send/repost to amortize the
    hypercall cost. Under [Disabled] protection the same call degenerates
    to direct ring writes (Table 4); the driver code is identical, matching
    the paper's wrapper-function design for IOMMU systems.

    Initialization is asynchronous (ring registration hypercalls); the
    device reports zero transmit space until ready, then sends any queued
    frames and fires the netdev writable hook. *)

type t

val create :
  hyp:Hyp.t ->
  handle:Hyp.ctx_handle ->
  costs:Guestos.Os_costs.t ->
  ?tx_slots:int ->
  ?rx_slots:int ->
  ?materialize:bool ->
  unit ->
  t

(** The stack-facing device. *)
val netdev : t -> Guestos.Netdev.t

(** True once rings and buffers are registered and posted. *)
val ready : t -> bool

(** Virtual-interrupt entry (installed on the context's event channel). *)
val handle_interrupt : t -> unit

(** [rebind t handle] re-targets the driver at a fresh context handle
    (after {!Hyp.migrate}): ring and buffer state is re-registered from
    scratch; frames still queued in the driver go out on the new context
    once it is up, frames lost in flight on the old one are the
    transport's problem (as on any link flap). *)
val rebind : t -> Hyp.ctx_handle -> unit

(** [enable_auto_recovery t] arranges for the driver to recover from
    protection faults on its context without outside help: the
    hypervisor's fault report triggers {!Hyp.reassign} (bounded
    retry/backoff controlled by [max_retries]/[backoff]) and the driver
    rebinds to the fresh context. Recovery re-arms itself after each
    successful rebind. *)
val enable_auto_recovery :
  ?max_retries:int -> ?backoff:Sim.Time.t -> t -> unit

(** Tx descriptors completed / frames received, as taken by polls. *)
val tx_count : t -> int
val rx_count : t -> int
val polls : t -> int

(** Enqueue hypercalls rejected by the hypervisor (diagnostics). *)
val enqueue_errors : t -> int

(** Successful automatic fault recoveries (context reassign + rebind). *)
val recoveries : t -> int

(** The driver's current context handle (changes across rebinds). *)
val handle : t -> Hyp.ctx_handle
