(** Simulated host physical memory.

    A flat physical address space of 4 KB pages with per-page ownership and
    reference counting (Xen's [page_info]), a free-page allocator, and
    real byte contents. The backing store is one contiguous [Bytes.t];
    page contents are still materialized (zero-filled) lazily on first
    touch — guests in the experiments only touch network-buffer pages, so
    a 4 GB machine commits only what is actually written.

    Each page has an owning domain and a reference count. The CDNA
    hypervisor pins pages under outstanding DMA by holding a reference,
    which blocks reallocation (paper section 3.3). Domains are identified
    by small integers.

    DMA in the simulator goes through {!read}/{!write} (or the
    non-allocating {!read_into}/{!write_sub} used by the datapath), so a
    protection bug (or a deliberately disabled protection mode, as in the
    paper's Table 4 experiment) corrupts real simulated memory that tests
    can observe. *)

type t

type domain_id = int

type state =
  | Free  (** Available to the allocator. *)
  | Owned of domain_id
  | Quarantined of domain_id
      (** Freed by its owner while references were outstanding; withheld
          from reallocation until the count drops to zero. The domain is
          the previous owner (for diagnostics). *)

(** [create ~total_pages ()] builds a memory of [total_pages] 4 KB pages,
    all initially free. *)
val create : total_pages:int -> unit -> t

val total_pages : t -> int
val free_pages : t -> int

(** {1 Page metadata}

    @raise Invalid_argument if [pfn] is out of range. *)

val state : t -> Addr.pfn -> state
val refcount : t -> Addr.pfn -> int

(** {1 Allocation}

    Pages are handed out in a fixed order: pages reclaimed by {!free} or
    {!put_ref} first, most recently reclaimed first, then never-allocated
    pages in ascending pfn order. *)

(** [alloc t ~owner ~count] takes [count] free pages for domain [owner],
    in allocation order. Returns [Error `Out_of_memory] (allocating
    nothing) if not enough pages are free.
    @raise Invalid_argument if [count] is negative. *)
val alloc : t -> owner:domain_id -> count:int -> (Addr.pfn list, [ `Out_of_memory ]) result

(** [populate t ~owner ~count] is {!alloc} without building the page
    list, for callers that find the pages later through {!owned_pages}. *)
val populate : t -> owner:domain_id -> count:int -> (unit, [ `Out_of_memory ]) result

(** [free t pfn] releases a page back to the allocator. If the page has
    outstanding references (pinned by DMA), it is quarantined and returns
    to the allocator only when the last reference is dropped.
    @raise Invalid_argument if the page is not owned. *)
val free : t -> Addr.pfn -> unit

(** [transfer t pfn ~to_] flips ownership of an owned, unreferenced page
    to another domain without passing through the allocator. Returns
    [Error `Pinned] if references are outstanding.
    @raise Invalid_argument if the page is not owned. *)
val transfer : t -> Addr.pfn -> to_:domain_id -> (unit, [ `Pinned ]) result

(** {1 Reference counting (DMA pinning)} *)

(** @raise Invalid_argument if the page is free. *)
val get_ref : t -> Addr.pfn -> unit

(** Decrement; reclaims quarantined pages that drop to zero.
    @raise Invalid_argument if the count is already zero. *)
val put_ref : t -> Addr.pfn -> unit

(** {1 Ownership queries} *)

(** [owned_by t pfn dom] is true iff [pfn] is currently owned by [dom]
    (false for an out-of-range [pfn]). *)
val owned_by : t -> Addr.pfn -> domain_id -> bool

(** [owned_pages t dom] lists the pages [dom] owns, in ascending order.
    Quarantined pages belong to nobody. *)
val owned_pages : t -> domain_id -> Addr.pfn list

(** {1 Byte access}

    Ranges may span pages. @raise Invalid_argument on out-of-range
    accesses or negative lengths. *)

(** [valid_range t ~addr ~len] is true iff [\[addr, addr+len)] lies
    entirely inside physical memory (and [len >= 0]). The one bounds
    predicate shared by {!check_range}-style validation here and the DMA
    engine's admission check, so the two cannot drift. *)
val valid_range : t -> addr:Addr.t -> len:int -> bool

val read : t -> addr:Addr.t -> len:int -> Bytes.t
val write : t -> addr:Addr.t -> Bytes.t -> unit

(** [read_into t ~addr ~len dst ~pos] copies [len] bytes starting at
    physical [addr] into [dst] at [pos] without allocating.
    @raise Invalid_argument if either range is out of bounds. *)
val read_into : t -> addr:Addr.t -> len:int -> Bytes.t -> pos:int -> unit

(** [write_sub t ~addr src ~pos ~len] writes [src[pos, pos+len)] to
    physical [addr] without allocating.
    @raise Invalid_argument if either range is out of bounds. *)
val write_sub : t -> addr:Addr.t -> Bytes.t -> pos:int -> len:int -> unit

(** [write_string t ~addr s] writes all of [s] at physical [addr]. *)
val write_string : t -> addr:Addr.t -> string -> unit

(** [equal_string t ~addr s] is true iff the [String.length s] bytes at
    physical [addr] equal [s]. Same range check and zero-fill-on-touch as
    {!read}, but it compares in place and allocates nothing. *)
val equal_string : t -> addr:Addr.t -> string -> bool

(** Fixed-width little-endian accessors used by descriptor rings. All of
    them index the flat backing store directly — one validated range
    check, no intermediate buffer. *)

(** Variable-width little-endian accessors ([bytes] in [1, 8]), for
    descriptor layouts with non-standard field widths. *)

val read_uint : t -> addr:Addr.t -> bytes:int -> int
val write_uint : t -> addr:Addr.t -> bytes:int -> int -> unit

val read_u16 : t -> addr:Addr.t -> int
val write_u16 : t -> addr:Addr.t -> int -> unit
val read_u32 : t -> addr:Addr.t -> int
val write_u32 : t -> addr:Addr.t -> int -> unit
val read_u64 : t -> addr:Addr.t -> int
val write_u64 : t -> addr:Addr.t -> int -> unit

(** Number of pages whose contents have been materialized (for tests). *)
val materialized_pages : t -> int
