(** DMA descriptor wire format.

    The paper (section 3.4) observes that any NIC DMA descriptor has three
    fields of interest — address, length, flags — plus, for CDNA, a
    sequence number. We fix one 16-byte little-endian layout:

    {v
    offset 0  : u64  buffer physical address
    offset 8  : u32  buffer length in bytes
    offset 12 : u16  flags
    offset 14 : u16  sequence number
    v}

    Descriptors live in rings in host memory and are read and written
    through {!Phys_mem}, exactly as hardware would fetch them over DMA —
    so a stale or foreign descriptor misbehaves the way the paper
    describes. *)

type t = { addr : Addr.t; len : int; flags : int; seqno : int }

(** Size of one serialized descriptor in bytes (16). *)
val size_bytes : int

(** Flag bits. *)

val flag_end_of_packet : int
val flag_interrupt_on_completion : int

(** [write mem ~at d] serializes [d] at physical address [at].
    @raise Invalid_argument if a field is out of range
    ([len] and [flags], [seqno] must fit their widths). *)
val write : Phys_mem.t -> at:Addr.t -> t -> unit

(** [read mem ~at] deserializes a descriptor. *)
val read : Phys_mem.t -> at:Addr.t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Batches}

    A batch of descriptors to enqueue, as parallel arrays of addresses,
    lengths and flags (the hypervisor assigns sequence numbers): the
    driver fills one it owns per direction, so building a batch
    allocates nothing. *)

type batch

(** [batch capacity] is an empty batch of at most [capacity]
    descriptors.
    @raise Invalid_argument if [capacity] is not positive. *)
val batch : int -> batch

(** The batch's descriptors ([d.seqno] is not kept), in order. *)
val batch_of_list : t list -> batch

val batch_clear : batch -> unit

(** [batch_add b ~addr ~len ~flags] appends one descriptor.
    @raise Invalid_argument if the batch is full. *)
val batch_add : batch -> addr:Addr.t -> len:int -> flags:int -> unit

val batch_length : batch -> int

(** Fields of the [i]-th descriptor; [i] must be below
    {!batch_length}. *)
val batch_addr : batch -> int -> Addr.t

val batch_len : batch -> int -> int
val batch_flags : batch -> int -> int
