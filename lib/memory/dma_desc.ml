type t = { addr : Addr.t; len : int; flags : int; seqno : int }

let size_bytes = 16
let flag_end_of_packet = 0x1
let flag_interrupt_on_completion = 0x2

let write mem ~at d =
  if d.len < 0 || d.len > 0xFFFF_FFFF then
    invalid_arg "Dma_desc.write: length out of range";
  if d.flags < 0 || d.flags > 0xFFFF then
    invalid_arg "Dma_desc.write: flags out of range";
  if d.seqno < 0 || d.seqno > 0xFFFF then
    invalid_arg "Dma_desc.write: seqno out of range";
  if d.addr < 0 then invalid_arg "Dma_desc.write: negative address";
  Phys_mem.write_u64 mem ~addr:at d.addr;
  Phys_mem.write_u32 mem ~addr:(at + 8) d.len;
  Phys_mem.write_u16 mem ~addr:(at + 12) d.flags;
  Phys_mem.write_u16 mem ~addr:(at + 14) d.seqno

let read mem ~at =
  {
    addr = Phys_mem.read_u64 mem ~addr:at;
    len = Phys_mem.read_u32 mem ~addr:(at + 8);
    flags = Phys_mem.read_u16 mem ~addr:(at + 12);
    seqno = Phys_mem.read_u16 mem ~addr:(at + 14);
  }

let equal a b =
  a.addr = b.addr && a.len = b.len && a.flags = b.flags && a.seqno = b.seqno

let pp ppf d =
  Format.fprintf ppf "{addr=%a len=%d flags=0x%x seq=%d}" Addr.pp d.addr
    d.len d.flags d.seqno

type batch = {
  b_addr : Addr.t array;
  b_len : int array;
  b_flags : int array;
  mutable b_n : int;
}

let batch capacity =
  if capacity <= 0 then invalid_arg "Dma_desc.batch: non-positive capacity";
  {
    b_addr = Array.make capacity 0;
    b_len = Array.make capacity 0;
    b_flags = Array.make capacity 0;
    b_n = 0;
  }

let[@cdna.hot] batch_clear b = b.b_n <- 0

let[@cdna.hot] batch_add b ~addr ~len ~flags =
  let i = b.b_n in
  if i >= Array.length b.b_addr then invalid_arg "Dma_desc.batch_add: full";
  b.b_addr.(i) <- addr;
  b.b_len.(i) <- len;
  b.b_flags.(i) <- flags;
  b.b_n <- i + 1

let batch_of_list ds =
  let b = batch (max 1 (List.length ds)) in
  List.iter (fun d -> batch_add b ~addr:d.addr ~len:d.len ~flags:d.flags) ds;
  b

let[@cdna.hot] batch_length b = b.b_n
let[@cdna.hot] batch_addr b i = b.b_addr.(i)
let[@cdna.hot] batch_len b i = b.b_len.(i)
let[@cdna.hot] batch_flags b i = b.b_flags.(i)
