type malice =
  | Out_of_sequence
  | Foreign_page of Memory.Addr.pfn
  | Over_length

type t = {
  ring : Ring_driver.t;
  mem : Memory.Phys_mem.t;
  sg_split : int option;
  tx_ring : Nic.Ring.t;
  rx_ring : Nic.Ring.t;
  mutable malice : (malice * int) option; (* kind, every nth packet *)
  mutable malice_seen : int;
  mutable malicious_descs : int;
}

let page_addr pfn = Memory.Addr.base_of_pfn pfn

(* Descriptors a packet occupies under the configured scatter/gather
   policy. *)
let descs_per_packet t frame =
  match t.sg_split with
  | Some split when frame.Ethernet.Frame.payload_len > split -> 2
  | Some _ | None -> 1

let write_tx_descriptor t frame =
  let r = t.ring in
  let base = Ring_driver.tx_page r r.tx_prod in
  let len = frame.Ethernet.Frame.payload_len in
  (Netdev.write_payload r.payload ~addr:base frame
  [@cdna.protection_ok
    "native (non-virtualized) baseline: the OS owns all memory and writes \
     its own DMA buffers directly"]);
  let evil =
    match t.malice with
    | None -> None
    | Some (kind, every) ->
        t.malice_seen <- t.malice_seen + 1;
        if t.malice_seen mod every = 0 then Some kind else None
  in
  let emit ~offset ~len ~eop =
    let slot = r.tx_prod in
    let desc =
      {
        Memory.Dma_desc.addr = base + offset;
        len;
        flags = (if eop then Memory.Dma_desc.flag_end_of_packet else 0);
        seqno = slot land 0xFFFF;
      }
    in
    let desc =
      match evil with
      | Some kind when eop ->
          t.malicious_descs <- t.malicious_descs + 1;
          (match kind with
          | Out_of_sequence ->
              { desc with Memory.Dma_desc.seqno = (desc.seqno + 7) land 0xFFFF }
          | Foreign_page p -> { desc with Memory.Dma_desc.addr = page_addr p }
          | Over_length ->
              (* Runs the DMA off the end of the buffer page, far enough
                 to leave any plausible allocation of this driver. *)
              { desc with Memory.Dma_desc.len = (4 * Memory.Addr.page_size) + 512 })
      | Some _ | None -> desc
    in
    Memory.Desc_layout.write r.hw.Nic.Driver_if.desc_layout t.mem
      ~at:(Nic.Ring.slot_addr t.tx_ring slot)
      desc;
    r.tx_prod <- slot + 1
  in
  (match t.sg_split with
  | Some split when len > split ->
      (* Header fragment + payload fragment, as a zero-copy stack would
         hand down (scatter/gather I/O). *)
      emit ~offset:0 ~len:split ~eop:false;
      emit ~offset:split ~len:(len - split) ~eop:true
  | Some _ | None -> emit ~offset:0 ~len ~eop:true);
  r.hw.Nic.Driver_if.stage_tx_meta frame

(* Move queued frames into ring slots and ring the doorbell once. *)
let pump_tx t () =
  let r = t.ring in
  let pending = Netdev.pending r.dev in
  let moved = ref 0 in
  while
    (match Queue.peek_opt pending with
    | Some frame -> Ring_driver.tx_room r >= descs_per_packet t frame
    | None -> false)
  do
    write_tx_descriptor t (Queue.pop pending);
    incr moved
  done;
  if !moved > 0 then r.hw.Nic.Driver_if.tx_doorbell r.tx_prod;
  Netdev.wake_if_writable r.dev

(* Post [n] receive buffers and ring the doorbell once. *)
let repost_rx t n =
  let r = t.ring in
  for _ = 1 to n do
    let slot = r.rx_prod in
    let desc =
      {
        Memory.Dma_desc.addr = Ring_driver.rx_page r slot;
        len = Memory.Addr.page_size;
        flags = 0;
        seqno = slot land 0xFFFF;
      }
    in
    Memory.Desc_layout.write r.hw.Nic.Driver_if.desc_layout t.mem
      ~at:(Nic.Ring.slot_addr t.rx_ring slot)
      desc;
    r.rx_prod <- slot + 1
  done;
  r.hw.Nic.Driver_if.rx_doorbell r.rx_prod

let create ~mem ~post_kernel ~costs ~hw ~mac ~alloc_pages ?(tx_slots = 256)
    ?(rx_slots = 256) ?(materialize = false) ?sg_split () =
  (match sg_split with
  | Some n when n <= 0 -> invalid_arg "Native_driver: non-positive sg_split"
  | Some _ | None -> ());
  let ring =
    Ring_driver.create ~name:"Native_driver" ~mac ~post_kernel ~costs ~mem
      ~materialize ~hw ~alloc_pages ~tx_slots ~rx_slots
  in
  let desc_bytes = hw.Nic.Driver_if.desc_layout.Memory.Desc_layout.size in
  let ring_at pfn slots =
    Nic.Ring.create ~base:(page_addr pfn) ~slots ~desc_bytes ()
  in
  let t =
    {
      ring;
      mem;
      sg_split;
      tx_ring = ring_at ring.tx_ring_page tx_slots;
      rx_ring = ring_at ring.rx_ring_page rx_slots;
      malice = None;
      malice_seen = 0;
      malicious_descs = 0;
    }
  in
  Ring_driver.attach ring ~pump:(pump_tx t) ~repost_rx:(repost_rx t);
  (* Program the hardware and post the full complement of rx buffers. *)
  hw.Nic.Driver_if.setup_tx_ring t.tx_ring;
  hw.Nic.Driver_if.setup_rx_ring t.rx_ring;
  hw.Nic.Driver_if.setup_status (page_addr ring.status_page);
  Ring_driver.bring_up ring;
  t

let netdev t = t.ring.dev
let handle_interrupt t = Ring_driver.handle_interrupt t.ring
let tx_count t = t.ring.tx_count
let rx_count t = t.ring.rx_count
let polls t = t.ring.polls

let set_malice t ?(every = 1) kind =
  if every < 1 then invalid_arg "Native_driver.set_malice: every must be >= 1";
  t.malice <- Option.map (fun k -> (k, every)) kind

let malicious_descs t = t.malicious_descs
