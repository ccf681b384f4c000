(* Flat physical memory.

   One contiguous [Bytes.t] backs the whole address space. The backing is
   allocated uninitialized (the OS commits pages lazily), so a page must
   be zeroed on first touch: the [materialized] bitmap records which
   pages have been, and doubles as the [materialized_pages] accounting.
   Reclaiming a page clears its bit, so a reallocated frame zero-fills
   again on next access and never leaks the previous owner's bytes.

   Page metadata (Xen's [page_info]) is two int slots per pfn, and the
   allocator is a bump pointer over never-allocated pfns plus a LIFO
   stack of reclaimed ones; DESIGN.md section 8 gives the layout and why
   the allocation order must be exactly this one.

   The datapath accessors ([read_into], [write_sub], the fixed-width
   uints) validate the range once at the API edge and then index the
   flat store with [Bytes.unsafe_get]/[unsafe_set] — no intermediate
   allocation, no per-page lookups. *)

type domain_id = int
type state = Free | Owned of domain_id | Quarantined of domain_id

let tag_free = 0
let tag_owned = 1
let tag_quarantined = 2
let[@inline] pack owner tag = (owner lsl 2) lor tag

type t = {
  total_pages : int;
  total_bytes : int;
  data : Bytes.t;
  meta : int array; (* (owner lsl 2) lor tag, per pfn *)
  refs : int array; (* reference (pin) count, per pfn *)
  materialized : Bytes.t; (* 1 bit per page *)
  mutable materialized_count : int;
  mutable fresh : int; (* pfns >= fresh have never been allocated *)
  mutable stack : Addr.pfn array; (* reclaimed pfns, top at [sp - 1] *)
  mutable sp : int;
}

let[@inline] tag t pfn = Array.unsafe_get t.meta pfn land 3
let[@inline] owner t pfn = Array.unsafe_get t.meta pfn asr 2

let create ~total_pages () =
  if total_pages <= 0 then invalid_arg "Phys_mem.create: no pages";
  {
    total_pages;
    total_bytes = total_pages * Addr.page_size;
    data = Bytes.create (total_pages * Addr.page_size);
    meta = Array.make total_pages (pack 0 tag_free);
    refs = Array.make total_pages 0;
    materialized = Bytes.make ((total_pages + 7) / 8) '\000';
    materialized_count = 0;
    fresh = 0;
    stack = [||];
    sp = 0;
  }

let total_pages t = t.total_pages
let free_pages t = t.sp + (t.total_pages - t.fresh)
let[@cdna.hot] materialized_pages t = t.materialized_count

let[@cdna.hot] is_materialized t pfn =
  Char.code (Bytes.unsafe_get t.materialized (pfn lsr 3))
  land (1 lsl (pfn land 7))
  <> 0

let[@cdna.hot] materialize t pfn =
  if not (is_materialized t pfn) then begin
    Bytes.unsafe_set t.materialized (pfn lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.materialized (pfn lsr 3))
         lor (1 lsl (pfn land 7))));
    t.materialized_count <- t.materialized_count + 1;
    Bytes.fill t.data (pfn lsl Addr.page_shift) Addr.page_size '\000'
  end

let dematerialize t pfn =
  if is_materialized t pfn then begin
    Bytes.unsafe_set t.materialized (pfn lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.materialized (pfn lsr 3))
         land lnot (1 lsl (pfn land 7))));
    t.materialized_count <- t.materialized_count - 1
  end

(* Zero-fill-on-first-touch for every page the range overlaps. Called
   after the range has been validated. *)
let[@cdna.hot] touch_range t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr Addr.page_shift in
    let last = (addr + len - 1) lsr Addr.page_shift in
    for pfn = first to last do
      materialize t pfn
    done
  end

let[@cdna.hot] check_pfn t pfn =
  if pfn < 0 || pfn >= t.total_pages then
    invalid_arg "Phys_mem.page: pfn out of range"

let state t pfn =
  check_pfn t pfn;
  let tag = tag t pfn in
  if tag = tag_owned then Owned (owner t pfn)
  else if tag = tag_quarantined then Quarantined (owner t pfn)
  else Free

let refcount t pfn =
  check_pfn t pfn;
  Array.unsafe_get t.refs pfn

(* The one allocator: hands out the top of the reclaimed stack first,
   then fresh pfns. The popped pfns stay in their stack slots until
   overwritten, which is what lets [alloc] list them afterwards. *)
let populate t ~owner ~count =
  if count < 0 then invalid_arg "Phys_mem.alloc: negative count";
  if count > free_pages t then Error `Out_of_memory
  else begin
    let tag = pack owner tag_owned in
    let popped = min count t.sp in
    for i = t.sp - popped to t.sp - 1 do
      Array.unsafe_set t.meta (Array.unsafe_get t.stack i) tag
    done;
    t.sp <- t.sp - popped;
    Array.fill t.meta t.fresh (count - popped) tag;
    t.fresh <- t.fresh + (count - popped);
    Ok ()
  end

let alloc t ~owner ~count =
  let sp = t.sp and fresh = t.fresh in
  match populate t ~owner ~count with
  | Error _ as e -> e
  | Ok () ->
      (* Allocation order: stack slots [sp - 1] down to [t.sp], then
         [fresh .. t.fresh - 1]; consed from the back. *)
      let acc = ref [] in
      for pfn = t.fresh - 1 downto fresh do
        acc := pfn :: !acc
      done;
      for i = t.sp to sp - 1 do
        acc := Array.unsafe_get t.stack i :: !acc
      done;
      Ok !acc

let reclaim t pfn =
  Array.unsafe_set t.meta pfn (pack 0 tag_free);
  if t.sp = Array.length t.stack then begin
    let grown = Array.make (max 64 (2 * t.sp)) 0 in
    Array.blit t.stack 0 grown 0 t.sp;
    t.stack <- grown
  end;
  Array.unsafe_set t.stack t.sp pfn;
  t.sp <- t.sp + 1;
  (* Freshly reallocated pages must not leak previous contents: clearing
     the bit makes the next touch zero-fill the frame again. *)
  dematerialize t pfn

let free t pfn =
  check_pfn t pfn;
  if tag t pfn <> tag_owned then invalid_arg "Page.release: page not owned";
  if Array.unsafe_get t.refs pfn = 0 then reclaim t pfn
  else Array.unsafe_set t.meta pfn (pack (owner t pfn) tag_quarantined)

let transfer t pfn ~to_ =
  check_pfn t pfn;
  if tag t pfn <> tag_owned then invalid_arg "Page.transfer: page not owned";
  if Array.unsafe_get t.refs pfn > 0 then Error `Pinned
  else begin
    Array.unsafe_set t.meta pfn (pack to_ tag_owned);
    Ok ()
  end

let get_ref t pfn =
  check_pfn t pfn;
  if tag t pfn = tag_free then invalid_arg "Page.get_ref: free page";
  Array.unsafe_set t.refs pfn (Array.unsafe_get t.refs pfn + 1)

let put_ref t pfn =
  check_pfn t pfn;
  let r = Array.unsafe_get t.refs pfn in
  if r <= 0 then invalid_arg "Page.put_ref: refcount already zero";
  Array.unsafe_set t.refs pfn (r - 1);
  if r = 1 && tag t pfn = tag_quarantined then reclaim t pfn

let owned_by t pfn dom =
  pfn >= 0 && pfn < t.total_pages
  && Array.unsafe_get t.meta pfn = pack dom tag_owned

let owned_pages t dom =
  let owned = pack dom tag_owned in
  let acc = ref [] in
  for pfn = t.fresh - 1 downto 0 do
    if Array.unsafe_get t.meta pfn = owned then acc := pfn :: !acc
  done;
  !acc

let[@cdna.hot] valid_range t ~addr ~len =
  len >= 0 && addr >= 0 && len <= t.total_bytes && addr <= t.total_bytes - len

let[@cdna.hot] check_range t ~addr ~len =
  if len < 0 then invalid_arg "Phys_mem: negative length";
  if addr < 0 || len > t.total_bytes || addr > t.total_bytes - len then
    invalid_arg "Phys_mem: address range out of bounds"

let[@cdna.hot] read_into t ~addr ~len dst ~pos =
  check_range t ~addr ~len;
  if pos < 0 || pos + len > Bytes.length dst then
    invalid_arg "Phys_mem.read_into: destination range out of bounds";
  touch_range t ~addr ~len;
  Bytes.blit t.data addr dst pos len

let[@cdna.hot] write_sub t ~addr src ~pos ~len =
  check_range t ~addr ~len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Phys_mem.write_sub: source range out of bounds";
  touch_range t ~addr ~len;
  Bytes.blit src pos t.data addr len

let read t ~addr ~len =
  check_range t ~addr ~len;
  touch_range t ~addr ~len;
  Bytes.sub t.data addr len

let[@cdna.hot] write t ~addr data = write_sub t ~addr data ~pos:0 ~len:(Bytes.length data)

let[@cdna.hot] write_string t ~addr s =
  let len = String.length s in
  check_range t ~addr ~len;
  touch_range t ~addr ~len;
  Bytes.blit_string s 0 t.data addr len

external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"

(* Eight bytes per step; the int64 annotation makes [=] the unboxed
   integer compare, so the loop allocates nothing. *)
let[@cdna.hot] equal_string t ~addr s =
  let len = String.length s in
  check_range t ~addr ~len;
  touch_range t ~addr ~len;
  let d = t.data in
  let i = ref 0 in
  while !i + 8 <= len && (bytes_get64u d (addr + !i) : int64) = string_get64u s !i do
    i := !i + 8
  done;
  while !i < len && Bytes.unsafe_get d (addr + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i >= len

(* Fixed-width little-endian accessors: one validated range check, then
   direct flat-store indexing — no intermediate buffers. *)

let[@cdna.hot] read_uint t ~addr ~bytes =
  check_range t ~addr ~len:bytes;
  touch_range t ~addr ~len:bytes;
  let d = t.data in
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) ((acc lsl 8) lor Char.code (Bytes.unsafe_get d (addr + i)))
  in
  build (bytes - 1) 0

let[@cdna.hot] write_uint t ~addr ~bytes v =
  check_range t ~addr ~len:bytes;
  touch_range t ~addr ~len:bytes;
  let d = t.data in
  for i = 0 to bytes - 1 do
    Bytes.unsafe_set d (addr + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let[@cdna.hot] read_u16 t ~addr =
  check_range t ~addr ~len:2;
  touch_range t ~addr ~len:2;
  let d = t.data in
  Char.code (Bytes.unsafe_get d addr)
  lor (Char.code (Bytes.unsafe_get d (addr + 1)) lsl 8)

let[@cdna.hot] write_u16 t ~addr v =
  check_range t ~addr ~len:2;
  touch_range t ~addr ~len:2;
  let d = t.data in
  Bytes.unsafe_set d addr (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set d (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let[@cdna.hot] read_u32 t ~addr =
  check_range t ~addr ~len:4;
  touch_range t ~addr ~len:4;
  let d = t.data in
  Char.code (Bytes.unsafe_get d addr)
  lor (Char.code (Bytes.unsafe_get d (addr + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get d (addr + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get d (addr + 3)) lsl 24)

let[@cdna.hot] write_u32 t ~addr v =
  check_range t ~addr ~len:4;
  touch_range t ~addr ~len:4;
  let d = t.data in
  Bytes.unsafe_set d addr (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set d (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set d (addr + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set d (addr + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let[@cdna.hot] read_u64 t ~addr =
  check_range t ~addr ~len:8;
  touch_range t ~addr ~len:8;
  let d = t.data in
  let lo =
    Char.code (Bytes.unsafe_get d addr)
    lor (Char.code (Bytes.unsafe_get d (addr + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get d (addr + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get d (addr + 3)) lsl 24)
  in
  let hi =
    Char.code (Bytes.unsafe_get d (addr + 4))
    lor (Char.code (Bytes.unsafe_get d (addr + 5)) lsl 8)
    lor (Char.code (Bytes.unsafe_get d (addr + 6)) lsl 16)
    lor (Char.code (Bytes.unsafe_get d (addr + 7)) lsl 24)
  in
  lo lor (hi lsl 32)

let[@cdna.hot] write_u64 t ~addr v =
  check_range t ~addr ~len:8;
  touch_range t ~addr ~len:8;
  let d = t.data in
  Bytes.unsafe_set d addr (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set d (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set d (addr + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set d (addr + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set d (addr + 4) (Char.unsafe_chr ((v lsr 32) land 0xff));
  Bytes.unsafe_set d (addr + 5) (Char.unsafe_chr ((v lsr 40) land 0xff));
  Bytes.unsafe_set d (addr + 6) (Char.unsafe_chr ((v lsr 48) land 0xff));
  Bytes.unsafe_set d (addr + 7) (Char.unsafe_chr ((v lsr 56) land 0xff))
