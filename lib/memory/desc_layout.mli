(** Negotiable DMA-descriptor formats (paper section 3.4).

    "There are only three fields of interest in any DMA descriptor: an
    address, a length, and additional flags. ... The NIC would only need
    to specify the size of the descriptor and the location of the
    address, length, and flags [and] the size and location of the
    sequence number field."

    A {!t} is exactly that specification. Devices publish their preferred
    layout; the hypervisor and drivers serialize {!Dma_desc.t} values
    through it without interpreting the flags. {!default} is the 16-byte
    layout used by the NICs in this repository; {!compact} is a 12-byte
    alternative exercising the negotiation (32-bit address, 16-bit
    length). *)

type t = {
  size : int;  (** Total descriptor bytes; ring slots use this stride. *)
  addr_off : int;
  addr_bytes : int;  (** 4-8; bounds the addressable physical memory. *)
  len_off : int;
  len_bytes : int;  (** 2 or 4. *)
  flags_off : int;
  seqno_off : int;  (** Sequence numbers are always 16 bits. *)
}

val default : t
val compact : t

(** [validate t] checks that fields fit inside [size] and do not overlap.
    Returns a description of the first problem found. *)
val validate : t -> (unit, string) result

(** [write t mem ~at d] serializes [d] per the layout.
    @raise Invalid_argument if a field value does not fit its width. *)
val write : t -> Phys_mem.t -> at:Addr.t -> Dma_desc.t -> unit

(** [read t mem ~at] deserializes per the layout. *)
val read : t -> Phys_mem.t -> at:Addr.t -> Dma_desc.t

(** [write_fields t mem ~at ~addr ~len ~flags ~seqno] is {!write} of the
    descriptor with those fields, without building the record. *)
val write_fields :
  t ->
  Phys_mem.t ->
  at:Addr.t ->
  addr:Addr.t ->
  len:int ->
  flags:int ->
  seqno:int ->
  unit

(** Largest address representable under the layout. *)
val max_addr : t -> Addr.t

(** Largest length representable under the layout. *)
val max_len : t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
