type fault =
  | Seqno_mismatch of { expected : int; got : int }
  | Missing_meta
  | Dma_fault of Bus.Dma_engine.fault

type dir = Tx | Rx

(* Maximum Ethernet frame footprint used for optimistic buffer
   reservation in the transmit pipeline. *)
let max_frame_bytes = 1538
let ready_depth = 4
let seqno_mod = 1 lsl 16

(* Fills empty FIFO slots; never delivered. *)
let no_frame =
  Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 0)
    ~dst:(Ethernet.Mac_addr.make 0) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0
    ~payload_len:0 ~payload_seed:0 ()

let no_desc = { Memory.Dma_desc.addr = 0; len = 0; flags = 0; seqno = 0 }

type ctx = {
  id : int;
  mutable active : bool;
  mutable faulted : bool;
  mutable epoch : int;
  mutable mac : Ethernet.Mac_addr.t option;
  mutable tx_ring : Ring.t option;
  mutable rx_ring : Ring.t option;
  mutable status_addr : Memory.Addr.t option;
  (* Free-running indices. [*_prod] is the driver's published producer;
     [tx_fetch_next]/[rx_use_next] are the firmware cursors; [*_cons] count
     fully completed descriptors. *)
  mutable tx_prod : int;
  mutable tx_fetch_next : int;
  mutable tx_cons : int;
  mutable rx_prod : int;
  mutable rx_use_next : int;
  mutable rx_cons : int;
  mutable tx_expected_seqno : int;
  mutable rx_expected_seqno : int;
  tx_meta : Ethernet.Frame.t Sim.Fifo.t;
  (* Scatter/gather assembly: payload fragments of the packet being
     assembled land in [sg_buf[0, sg_len)] (grow-on-demand, reused across
     packets) until a descriptor with the end-of-packet flag arrives.
     Safe because the fetch engine admits one fragment DMA at a time
     ([fetch_busy]), so the buffer is never grown under an in-flight
     [read_into]. *)
  mutable sg_buf : Bytes.t;
  mutable sg_len : int;
  mutable sg_frag_descs : int;
  (* Frames awaiting a receive buffer, with the epoch they arrived in
     (two FIFOs in lockstep). *)
  rx_backlog : Ethernet.Frame.t Sim.Fifo.t;
  rx_backlog_epoch : int Sim.Fifo.t;
  mutable tx_completed_unread : int;
  (* Completed receives, (ring index, frame), in lockstep. *)
  rx_done_idx : int Sim.Fifo.t;
  rx_done_frame : Ethernet.Frame.t Sim.Fifo.t;
  mutable tx_frames : int;
  mutable rx_frames : int;
}

type stats = {
  tx_frames : int;
  tx_bytes : int;
  rx_frames : int;
  rx_bytes : int;
  rx_no_ctx_drops : int;
  rx_overflow_drops : int;
  rx_truncated : int;
  faults : int;
}

(* The transmit fetch stage, the wire stage and the receive delivery each
   have at most one operation in flight ([fetch_busy], [wire_busy],
   [rx_busy]); its state lives in fields below and its DMA / wire
   continuations are closures built once, in [create], so a frame moves
   through the datapath without allocating. *)
type t = {
  engine : Sim.Engine.t;
  mem : Memory.Phys_mem.t;
  dma : Bus.Dma_engine.t;
  cfg : Nic_config.t;
  dma_context_base : int;
  notify : ctx:int -> unit;
  on_fault : ctx:int -> dir -> fault -> unit;
  ctxs : ctx array;
  mac_table : (Ethernet.Mac_addr.t, int) Hashtbl.t;
  mutable promiscuous : int option;
  tx_buf : Pkt_buf.t;
  rx_buf : Pkt_buf.t;
  (* Staging buffer for the one in-flight receive delivery ([rx_busy]
     serializes them): payload bytes are generated or truncated here and
     DMAed out with [write_from], so steady-state receive allocates
     nothing per frame. *)
  mutable rx_scratch : Bytes.t;
  mutable link : Ethernet.Link.t option;
  mutable link_side : Ethernet.Link.side;
  (* Transmit pipeline: fetch stage feeding a small ready FIFO ahead of the
     wire stage. The FIFO is [ready_depth] slots of parallel arrays: ctx
     id, epoch, frame, reserved bytes, descriptors consumed. *)
  ready_cid : int array;
  ready_epoch : int array;
  ready_frame : Ethernet.Frame.t array;
  ready_reserved : int array;
  ready_descs : int array;
  mutable ready_head : int;
  mutable ready_len : int;
  mutable fetch_busy : bool;
  mutable fetch_ctx : int; (* context the in-flight fetch serves, or -1 *)
  (* Whether the in-flight fetch already consumed a sequence number (its
     descriptor passed [check_seqno] and the payload DMA is in flight).
     Context save needs this to roll the expected seqno back exactly. *)
  mutable fetch_checked : bool;
  mutable fetch_epoch : int;
  mutable fetch_daddr : Memory.Addr.t;
  mutable fetch_desc : Memory.Dma_desc.t;
  mutable fetch_desc_k : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable fetch_payload_k : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable wire_busy : bool;
  (* The frame currently on the wire: ctx id (-1 when idle), epoch,
     descriptors, reserved bytes. Context save credits it as completed
     since the bits are already leaving the NIC. *)
  mutable wire_ctx : int;
  mutable wire_epoch : int;
  mutable wire_descs : int;
  mutable wire_reserved : int;
  mutable wire_frame : Ethernet.Frame.t;
  mutable wire_free_k : unit -> unit;
  mutable tx_rr : int;
  mutable rx_busy : bool;
  (* The in-flight receive delivery: ctx id (-1 when idle), epoch, ring
     index, descriptor address, frame, delivered length, and whether its
     descriptor already consumed a sequence number. *)
  mutable rx_ctx : int;
  mutable rx_epoch : int;
  mutable rx_idx : int;
  mutable rx_daddr : Memory.Addr.t;
  mutable rx_frame : Ethernet.Frame.t;
  mutable rx_len : int;
  mutable rx_cur_checked : bool;
  mutable rx_desc_k : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable rx_deliver_k : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable rx_rr : int;
  mutable congested : bool;
  mutable uncongested_hook : unit -> unit;
  (* aggregate statistics *)
  mutable s_tx_frames : int;
  mutable s_tx_bytes : int;
  mutable s_rx_frames : int;
  mutable s_rx_bytes : int;
  mutable s_no_ctx : int;
  mutable s_overflow : int;
  mutable s_truncated : int;
  mutable s_faults : int;
}

let make_ctx id =
  {
    id;
    active = false;
    faulted = false;
    epoch = 0;
    mac = None;
    tx_ring = None;
    rx_ring = None;
    status_addr = None;
    tx_prod = 0;
    tx_fetch_next = 0;
    tx_cons = 0;
    rx_prod = 0;
    rx_use_next = 0;
    rx_cons = 0;
    tx_expected_seqno = 0;
    rx_expected_seqno = 0;
    tx_meta = Sim.Fifo.create ~dummy:no_frame;
    sg_buf = Bytes.empty;
    sg_len = 0;
    sg_frag_descs = 0;
    rx_backlog = Sim.Fifo.create ~dummy:no_frame;
    rx_backlog_epoch = Sim.Fifo.create ~dummy:0;
    tx_completed_unread = 0;
    rx_done_idx = Sim.Fifo.create ~dummy:0;
    rx_done_frame = Sim.Fifo.create ~dummy:no_frame;
    tx_frames = 0;
    rx_frames = 0;
  }

let config t = t.cfg
let contexts t = Array.length t.ctxs
let dma t = t.dma

let ctx t i =
  if i < 0 || i >= Array.length t.ctxs then
    invalid_arg "Dp: context out of range";
  t.ctxs.(i)

let[@cdna.hot] dma_ctx t (c : ctx) = t.dma_context_base + c.id

(* Structured datapath events, tagged with the NIC's config name. Callers
   check [tracing] first, so the argument list is only built when the
   tag is on. *)
let[@cdna.hot] tracing t = Sim.Trace.tag_enabled t.cfg.Nic_config.name

let trace_event t ?(args = []) ~tid name =
  if tracing t then
    Sim.Trace.instant ~time:(Sim.Engine.now t.engine)
      ~tag:t.cfg.Nic_config.name ~tid ~args name

let trace_frame t (c : ctx) name ~seq ~len =
  trace_event t ~tid:c.id
    ~args:
      [
        ("ctx", Sim.Trace.Int c.id);
        ("seq", Sim.Trace.Int seq);
        ("len", Sim.Trace.Int len);
      ]
    name

let[@cdna.alloc_ok "fault path: halts the context"] fault t (c : ctx) dir f =
  t.s_faults <- t.s_faults + 1;
  c.faulted <- true;
  trace_event t ~tid:c.id
    ~args:
      [
        ("ctx", Sim.Trace.Int c.id);
        ("dir", Sim.Trace.Str (match dir with Tx -> "tx" | Rx -> "rx"));
      ]
    "protection-fault";
  t.on_fault ~ctx:c.id dir f

let[@cdna.alloc_ok "fault path: halts the context"] dma_fault t c dir e =
  fault t c dir (Dma_fault e)

(* Congestion watermarks: pause above 3/4, resume below 1/2. *)
let[@cdna.hot] hi_watermark t = Pkt_buf.capacity t.rx_buf * 3 / 4
let[@cdna.hot] lo_watermark t = Pkt_buf.capacity t.rx_buf / 2

let[@cdna.hot] release_rx_bytes t bytes =
  Pkt_buf.release t.rx_buf ~bytes;
  if t.congested && Pkt_buf.in_use t.rx_buf <= lo_watermark t then begin
    t.congested <- false;
    t.uncongested_hook ()
  end

let[@cdna.hot] reserve_rx_bytes t bytes =
  if Pkt_buf.try_reserve t.rx_buf ~bytes then begin
    if Pkt_buf.in_use t.rx_buf >= hi_watermark t then t.congested <- true;
    true
  end
  else false

(* Sequence-number continuity check (paper section 3.3). *)
let[@cdna.hot] seqno_ok ~expected ~got = got = expected mod seqno_mod

(* The NIC-side admission point for guest descriptors: a descriptor that
   passes continuity here is the one the hypervisor validated and
   stamped (Hyp.enqueue), so cdna_flow treats this check as the
   sanitizer on the device datapath. *)
let[@cdna.sanitizer] [@cdna.hot] check_seqno t c dir (desc : Memory.Dma_desc.t) =
  if not t.cfg.Nic_config.seqno_checking then true
  else begin
    let expected =
      match dir with Tx -> c.tx_expected_seqno | Rx -> c.rx_expected_seqno
    in
    if seqno_ok ~expected ~got:desc.seqno then begin
      (match dir with
      | Tx -> c.tx_expected_seqno <- (expected + 1) mod seqno_mod
      | Rx -> c.rx_expected_seqno <- (expected + 1) mod seqno_mod);
      true
    end
    else begin
      (fault t c dir
         (Seqno_mismatch
            { expected = expected mod seqno_mod; got = desc.seqno })
      [@cdna.alloc_ok "protection fault: halts the context"]);
      false
    end
  end

(* The descriptor at [daddr], as one record: the unit the seqno sanitizer
   validates. *)
let[@cdna.hot] read_desc t ~daddr =
  (Memory.Desc_layout.read t.cfg.Nic_config.desc_layout t.mem ~at:daddr
  [@cdna.alloc_ok
    "one descriptor record per fetch: cdna_flow follows taint through the \
     record that check_seqno sanitizes"])

let ignore_result : (unit, Bus.Dma_engine.fault) result -> unit = fun _ -> ()

(* Consumer indices land in the status page at DMA completion time. *)
let[@cdna.hot] writeback_status t (c : ctx) =
  match c.status_addr with
  | None -> ()
  | Some addr ->
      Bus.Dma_engine.write_words t.dma ~context:(dma_ctx t c) ~addr
        ~lo:(c.tx_cons land 0xFFFFFFFF) ~hi:(c.rx_cons land 0xFFFFFFFF)
        ignore_result

(* ---------- Transmit pipeline ---------- *)

let ensure_capacity buf ~len ~keep =
  if Bytes.length buf >= len then buf
  else begin
    let cap = max len (max 2048 (2 * Bytes.length buf)) in
    let b = Bytes.create cap in
    if keep > 0 then Bytes.blit buf 0 b 0 keep;
    b
  end

let[@cdna.hot] tx_work_available (c : ctx) =
  c.active && (not c.faulted)
  && (match c.tx_ring with Some _ -> true | None -> false)
  && c.tx_fetch_next < c.tx_prod

let[@cdna.hot] rx_work_available (c : ctx) =
  c.active && (not c.faulted)
  && (match c.rx_ring with Some _ -> true | None -> false)
  && (not (Sim.Fifo.is_empty c.rx_backlog))
  && c.rx_use_next < c.rx_prod

(* Round-robin pick of the next context with work (-1 if none), starting
   after [i - 1]: the CDNA NIC "services all of the hardware contexts
   fairly". *)
let[@cdna.hot] rec pick_ctx t ~tx i remaining =
  if remaining = 0 then -1
  else begin
    let c = t.ctxs.(i mod Array.length t.ctxs) in
    if (if tx then tx_work_available c else rx_work_available c) then c.id
    else pick_ctx t ~tx (i + 1) (remaining - 1)
  end

let[@cdna.hot] ring_of = function Some r -> r | None -> invalid_arg "Dp: no ring"

let[@cdna.hot] rec run_tx_fetch t =
  if t.fetch_busy || t.ready_len >= ready_depth then ()
  else begin
    let cid = pick_ctx t ~tx:true (t.tx_rr + 1) (Array.length t.ctxs) in
    if cid >= 0 then begin
      let c = t.ctxs.(cid) in
      let first_fragment = c.sg_frag_descs = 0 in
      (* The reservation itself is the admission check: if it fails the
         fetch stage stalls until the wire stage frees buffer space (a
         wire completion re-runs the fetch stage). Ignoring a failed
         reservation here would make the wire stage's later release
         underflow the shared-buffer accounting. *)
      if
        first_fragment
        && not (Pkt_buf.try_reserve t.tx_buf ~bytes:max_frame_bytes)
      then () (* stalled until the wire stage frees buffer space *)
      else begin
        t.tx_rr <- c.id;
        t.fetch_busy <- true;
        t.fetch_ctx <- c.id;
        t.fetch_checked <- false;
        t.fetch_epoch <- c.epoch;
        let idx = c.tx_fetch_next in
        c.tx_fetch_next <- idx + 1;
        let daddr = Ring.slot_addr (ring_of c.tx_ring) idx in
        t.fetch_daddr <- daddr;
        Bus.Dma_engine.access t.dma ~context:(dma_ctx t c) ~addr:daddr
          ~len:t.cfg.Nic_config.desc_layout.Memory.Desc_layout.size
          t.fetch_desc_k
      end
    end
  end

and[@cdna.hot] abandon_fetch t c =
  c.sg_len <- 0;
  c.sg_frag_descs <- 0;
  Pkt_buf.release t.tx_buf ~bytes:max_frame_bytes;
  t.fetch_busy <- false;
  t.fetch_ctx <- -1;
  run_tx_fetch t

(* The in-flight fetch's descriptor has arrived: check it, then fetch the
   payload fragment it names. *)
and[@cdna.hot] fetch_descriptor_done t res =
  let c = t.ctxs.(t.fetch_ctx) in
  if c.epoch <> t.fetch_epoch then abandon_fetch t c
  else
    match res with
    | Error e ->
        dma_fault t c Tx e;
        abandon_fetch t c
    | Ok () ->
        let desc = read_desc t ~daddr:t.fetch_daddr in
        if not (check_seqno t c Tx desc) then abandon_fetch t c
        else begin
          t.fetch_checked <- true;
          t.fetch_desc <- desc;
          if t.cfg.Nic_config.materialize_payloads then begin
            (* Fragment bytes land directly in the assembly buffer at
               completion time; grow it before submitting, never while
               the DMA is in flight. *)
            if Bytes.length c.sg_buf < c.sg_len + desc.len then
              (c.sg_buf <-
                 ensure_capacity c.sg_buf ~len:(c.sg_len + desc.len)
                   ~keep:c.sg_len
              [@cdna.alloc_ok "assembly buffer growth, amortized"]);
            Bus.Dma_engine.read_into t.dma ~context:(dma_ctx t c)
              ~addr:desc.addr ~len:desc.len ~dst:c.sg_buf ~pos:c.sg_len
              t.fetch_payload_k
          end
          else
            Bus.Dma_engine.access t.dma ~context:(dma_ctx t c)
              ~addr:desc.addr ~len:desc.len t.fetch_payload_k
        end

and[@cdna.hot] fetch_payload_done t res =
  let c = t.ctxs.(t.fetch_ctx) in
  let epoch = t.fetch_epoch and desc = t.fetch_desc in
  if c.epoch <> epoch then abandon_fetch t c
  else
    match res with
    | Error e ->
        dma_fault t c Tx e;
        abandon_fetch t c
    | Ok () ->
        if t.cfg.Nic_config.materialize_payloads then
          c.sg_len <- c.sg_len + desc.len;
        c.sg_frag_descs <- c.sg_frag_descs + 1;
        if desc.flags land Memory.Dma_desc.flag_end_of_packet = 0 then begin
          (* Scatter/gather: more fragments follow. Release the fetch
             engine; the next descriptor of this packet (or another
             context's work) proceeds. *)
          t.fetch_busy <- false;
          t.fetch_ctx <- -1;
          run_tx_fetch t
        end
        else if Sim.Fifo.is_empty c.tx_meta then begin
          fault t c Tx Missing_meta;
          abandon_fetch t c
        end
        else begin
          let frame = Sim.Fifo.pop c.tx_meta in
          (* The packet is fully assembled. The frame carries whatever
             bytes were actually in host memory; a corrupt descriptor
             shows up at the receiver as a payload mismatch. One copy per
             packet here, since the frame outlives the reusable assembly
             buffer. *)
          let total = c.sg_len in
          let n_descs = c.sg_frag_descs in
          c.sg_len <- 0;
          c.sg_frag_descs <- 0;
          let frame =
            if t.cfg.Nic_config.materialize_payloads then
              (Ethernet.Frame.with_bytes frame (Bytes.sub_string c.sg_buf 0 total)
              [@cdna.alloc_ok
                "materialized mode: the frame carries its own payload copy"])
            else frame
          in
          (* Adjust the optimistic reservation to the real footprint (TSO
             super-frames can exceed it). *)
          let actual = Ethernet.Frame.wire_bytes frame + 20 in
          let reserved =
            if actual <= max_frame_bytes then begin
              Pkt_buf.release t.tx_buf ~bytes:(max_frame_bytes - actual);
              actual
            end
            else if Pkt_buf.try_reserve t.tx_buf ~bytes:(actual - max_frame_bytes)
            then actual
            else max_frame_bytes
          in
          let i = (t.ready_head + t.ready_len) mod ready_depth in
          t.ready_cid.(i) <- c.id;
          t.ready_epoch.(i) <- epoch;
          t.ready_frame.(i) <- frame;
          t.ready_reserved.(i) <- reserved;
          t.ready_descs.(i) <- n_descs;
          t.ready_len <- t.ready_len + 1;
          t.fetch_busy <- false;
          t.fetch_ctx <- -1;
          run_tx_wire t;
          run_tx_fetch t
        end

and[@cdna.hot] run_tx_wire t =
  match t.link with
  | None -> ()
  | Some link ->
      if t.wire_busy || t.ready_len = 0 then ()
      else begin
        let i = t.ready_head in
        let cid = t.ready_cid.(i) and epoch = t.ready_epoch.(i) in
        let frame = t.ready_frame.(i) and reserved = t.ready_reserved.(i) in
        let n_descs = t.ready_descs.(i) in
        t.ready_frame.(i) <- no_frame;
        t.ready_head <- (i + 1) mod ready_depth;
        t.ready_len <- t.ready_len - 1;
        let c = t.ctxs.(cid) in
        if c.epoch <> epoch then begin
          (* Context revoked while staged: shut down the pending op. *)
          Pkt_buf.release t.tx_buf ~bytes:reserved;
          run_tx_wire t
        end
        else begin
          t.wire_busy <- true;
          t.wire_ctx <- cid;
          t.wire_epoch <- epoch;
          t.wire_descs <- n_descs;
          t.wire_reserved <- reserved;
          t.wire_frame <- frame;
          (Ethernet.Link.send link ~from:t.link_side frame
             ~on_wire_free:t.wire_free_k
          [@cdna.alloc_ok
            "the link, outside the NIC, schedules one arrival closure per \
             frame"])
        end
      end

(* The frame on the wire has left the NIC: complete its descriptors. *)
and[@cdna.hot] wire_free t =
  let c = t.ctxs.(t.wire_ctx) and epoch = t.wire_epoch in
  let frame = t.wire_frame and n_descs = t.wire_descs in
  t.wire_busy <- false;
  t.wire_ctx <- -1;
  t.wire_frame <- no_frame;
  Pkt_buf.release t.tx_buf ~bytes:t.wire_reserved;
  t.s_tx_frames <- t.s_tx_frames + 1;
  t.s_tx_bytes <- t.s_tx_bytes + frame.Ethernet.Frame.payload_len;
  if c.epoch = epoch then begin
    if tracing t then
      (trace_frame t c "tx" ~seq:frame.Ethernet.Frame.seq
         ~len:frame.Ethernet.Frame.payload_len
      [@cdna.alloc_ok "tracing branch, disabled unless the NIC tag is on"]);
    c.tx_frames <- c.tx_frames + 1;
    c.tx_cons <- c.tx_cons + n_descs;
    c.tx_completed_unread <- c.tx_completed_unread + n_descs;
    writeback_status t c;
    t.notify ~ctx:c.id
  end;
  run_tx_wire t;
  run_tx_fetch t

(* ---------- Receive path ---------- *)

let[@cdna.hot] rec run_rx t =
  if t.rx_busy then ()
  else begin
    let cid = pick_ctx t ~tx:false (t.rx_rr + 1) (Array.length t.ctxs) in
    if cid >= 0 then begin
      let c = t.ctxs.(cid) in
      t.rx_rr <- c.id;
      t.rx_busy <- true;
      let frame = Sim.Fifo.pop c.rx_backlog in
      let epoch = Sim.Fifo.pop c.rx_backlog_epoch in
      if epoch <> c.epoch then begin
        (* Stale after revocation (normally cleared there already). *)
        release_rx_bytes t (Ethernet.Frame.wire_bytes frame);
        t.rx_busy <- false;
        run_rx t
      end
      else begin
        let idx = c.rx_use_next in
        c.rx_use_next <- idx + 1;
        t.rx_ctx <- c.id;
        t.rx_epoch <- epoch;
        t.rx_idx <- idx;
        t.rx_frame <- frame;
        t.rx_cur_checked <- false;
        let daddr = Ring.slot_addr (ring_of c.rx_ring) idx in
        t.rx_daddr <- daddr;
        Bus.Dma_engine.access t.dma ~context:(dma_ctx t c) ~addr:daddr
          ~len:t.cfg.Nic_config.desc_layout.Memory.Desc_layout.size
          t.rx_desc_k
      end
    end
  end

and[@cdna.hot] rx_abandon t =
  let frame = t.rx_frame in
  t.rx_frame <- no_frame;
  release_rx_bytes t (Ethernet.Frame.wire_bytes frame);
  t.rx_busy <- false;
  t.rx_ctx <- -1;
  run_rx t

(* The in-flight delivery's descriptor has arrived: check it, stage the
   payload and DMA it into the posted buffer. *)
and[@cdna.hot] rx_descriptor_done t res =
  let c = t.ctxs.(t.rx_ctx) and frame = t.rx_frame in
  if c.epoch <> t.rx_epoch then rx_abandon t
  else
    match res with
    | Error e ->
        dma_fault t c Rx e;
        rx_abandon t
    | Ok () ->
        let desc = read_desc t ~daddr:t.rx_daddr in
        if not (check_seqno t c Rx desc) then rx_abandon t
        else begin
          t.rx_cur_checked <- true;
          let len = min frame.Ethernet.Frame.payload_len desc.len in
          t.rx_len <- len;
          if t.cfg.Nic_config.materialize_payloads then begin
            (* Deliver through the per-NIC staging buffer: spec-only
               frames generate their payload straight into it, frames
               that already carry bytes are staged (and truncated to the
               posted buffer) without a fresh allocation. [rx_busy] keeps
               the scratch untouched until the delivery completes. *)
            if Bytes.length t.rx_scratch < len then
              (t.rx_scratch <- ensure_capacity t.rx_scratch ~len ~keep:0
              [@cdna.alloc_ok "staging buffer growth, amortized"]);
            (match frame.Ethernet.Frame.data with
            | Spec_only ->
                Ethernet.Frame.blit_payload
                  ~seed:frame.Ethernet.Frame.payload_seed ~len t.rx_scratch
                  ~pos:0
            | Generated data | Other data ->
                Bytes.blit_string data 0 t.rx_scratch 0 len);
            Bus.Dma_engine.write_from t.dma ~context:(dma_ctx t c)
              ~addr:desc.addr ~src:t.rx_scratch ~pos:0 ~len t.rx_deliver_k
          end
          else
            Bus.Dma_engine.access t.dma ~context:(dma_ctx t c)
              ~addr:desc.addr ~len t.rx_deliver_k
        end

and[@cdna.hot] rx_delivered t res =
  let c = t.ctxs.(t.rx_ctx) and frame = t.rx_frame and len = t.rx_len in
  if c.epoch <> t.rx_epoch then rx_abandon t
  else
    match res with
    | Error e ->
        dma_fault t c Rx e;
        rx_abandon t
    | Ok () ->
        release_rx_bytes t (Ethernet.Frame.wire_bytes frame);
        if tracing t then
          (trace_frame t c "rx" ~seq:frame.Ethernet.Frame.seq ~len
          [@cdna.alloc_ok "tracing branch, disabled unless the NIC tag is on"]);
        c.rx_cons <- c.rx_cons + 1;
        c.rx_frames <- c.rx_frames + 1;
        t.s_rx_frames <- t.s_rx_frames + 1;
        (* Only the bytes that fit the posted buffer were delivered; a
           short descriptor truncates the frame. *)
        t.s_rx_bytes <- t.s_rx_bytes + len;
        if len < frame.Ethernet.Frame.payload_len then
          t.s_truncated <- t.s_truncated + 1;
        Sim.Fifo.push c.rx_done_idx t.rx_idx;
        Sim.Fifo.push c.rx_done_frame frame;
        writeback_status t c;
        t.notify ~ctx:c.id;
        t.rx_busy <- false;
        t.rx_ctx <- -1;
        t.rx_frame <- no_frame;
        run_rx t

let on_rx_frame t frame =
  let dst = frame.Ethernet.Frame.dst in
  let target =
    match Hashtbl.find t.mac_table dst with
    | i when t.ctxs.(i).active -> i
    | _ | (exception Not_found) -> (
        match t.promiscuous with
        | Some i when t.ctxs.(i).active -> i
        | Some _ | None -> -1)
  in
  if target < 0 then t.s_no_ctx <- t.s_no_ctx + 1
  else begin
    let c = t.ctxs.(target) in
    if reserve_rx_bytes t (Ethernet.Frame.wire_bytes frame) then begin
      Sim.Fifo.push c.rx_backlog frame;
      Sim.Fifo.push c.rx_backlog_epoch c.epoch;
      run_rx t
    end
    else t.s_overflow <- t.s_overflow + 1
  end

let create engine ~mem ~dma ~config ~contexts ~dma_context_base ~notify
    ~on_fault () =
  if contexts <= 0 || contexts > 32 then
    invalid_arg "Dp.create: contexts out of range";
  let t =
    {
      engine;
      mem;
      dma;
      cfg = config;
      dma_context_base;
      notify;
      on_fault;
      ctxs = Array.init contexts make_ctx;
      mac_table = Hashtbl.create 64;
      promiscuous = None;
      tx_buf = Pkt_buf.create ~capacity:config.Nic_config.tx_buffer_bytes;
      rx_buf = Pkt_buf.create ~capacity:config.Nic_config.rx_buffer_bytes;
      rx_scratch = Bytes.empty;
      link = None;
      link_side = Ethernet.Link.A;
      ready_cid = Array.make ready_depth 0;
      ready_epoch = Array.make ready_depth 0;
      ready_frame = Array.make ready_depth no_frame;
      ready_reserved = Array.make ready_depth 0;
      ready_descs = Array.make ready_depth 0;
      ready_head = 0;
      ready_len = 0;
      fetch_busy = false;
      fetch_ctx = -1;
      fetch_checked = false;
      fetch_epoch = 0;
      fetch_daddr = 0;
      fetch_desc = no_desc;
      fetch_desc_k = ignore_result;
      fetch_payload_k = ignore_result;
      wire_busy = false;
      wire_ctx = -1;
      wire_epoch = 0;
      wire_descs = 0;
      wire_reserved = 0;
      wire_frame = no_frame;
      wire_free_k = ignore;
      tx_rr = 0;
      rx_busy = false;
      rx_ctx = -1;
      rx_epoch = 0;
      rx_idx = 0;
      rx_daddr = 0;
      rx_frame = no_frame;
      rx_len = 0;
      rx_cur_checked = false;
      rx_desc_k = ignore_result;
      rx_deliver_k = ignore_result;
      rx_rr = 0;
      congested = false;
      uncongested_hook = (fun () -> ());
      s_tx_frames = 0;
      s_tx_bytes = 0;
      s_rx_frames = 0;
      s_rx_bytes = 0;
      s_no_ctx = 0;
      s_overflow = 0;
      s_truncated = 0;
      s_faults = 0;
    }
  in
  t.fetch_desc_k <- (fun res -> fetch_descriptor_done t res);
  t.fetch_payload_k <- (fun res -> fetch_payload_done t res);
  t.wire_free_k <- (fun () -> wire_free t);
  t.rx_desc_k <- (fun res -> rx_descriptor_done t res);
  t.rx_deliver_k <- (fun res -> rx_delivered t res);
  t

let attach_link t link ~side =
  t.link <- Some link;
  t.link_side <- side;
  Ethernet.Link.attach link side (fun frame -> on_rx_frame t frame)

(* ---------- Context control ---------- *)

let activate t ~ctx:i ~mac =
  let c = ctx t i in
  if c.active then invalid_arg "Dp.activate: context already active";
  trace_event t ~tid:i
    ~args:
      [
        ("ctx", Sim.Trace.Int i);
        ("mac", Sim.Trace.Str (Ethernet.Mac_addr.to_string mac));
      ]
    "activate";
  c.active <- true;
  c.faulted <- false;
  c.mac <- Some mac;
  Hashtbl.replace t.mac_table mac i;
  run_tx_fetch t;
  run_rx t

let deactivate t ~ctx:i =
  let c = ctx t i in
  if c.active || c.faulted then begin
    (match c.mac with
    | Some mac
      when match Hashtbl.find_opt t.mac_table mac with
           | Some owner -> Int.equal owner i
           | None -> false ->
        Hashtbl.remove t.mac_table mac
    | Some _ | None -> ());
    c.active <- false;
    c.faulted <- false;
    c.mac <- None;
    c.epoch <- c.epoch + 1;
    (* A packet abandoned mid-assembly holds a transmit-buffer
       reservation; release it here unless an in-flight fetch for this
       context will do so when its completion observes the epoch bump. *)
    let fetch_serves_this_ctx = Int.equal t.fetch_ctx c.id in
    if c.sg_frag_descs > 0 && not fetch_serves_this_ctx then
      Pkt_buf.release t.tx_buf ~bytes:max_frame_bytes;
    Sim.Fifo.iter
      (fun frame -> release_rx_bytes t (Ethernet.Frame.wire_bytes frame))
      c.rx_backlog;
    Sim.Fifo.clear c.rx_backlog;
    Sim.Fifo.clear c.rx_backlog_epoch;
    Sim.Fifo.clear c.tx_meta;
    c.sg_len <- 0;
    c.sg_frag_descs <- 0;
    Sim.Fifo.clear c.rx_done_idx;
    Sim.Fifo.clear c.rx_done_frame;
    c.tx_completed_unread <- 0;
    c.tx_ring <- None;
    c.rx_ring <- None;
    c.status_addr <- None;
    c.tx_prod <- 0;
    c.tx_fetch_next <- 0;
    c.tx_cons <- 0;
    c.rx_prod <- 0;
    c.rx_use_next <- 0;
    c.rx_cons <- 0;
    c.tx_expected_seqno <- 0;
    c.rx_expected_seqno <- 0
  end

(* ---------- Context paging (save/restore) ---------- *)

type saved_ctx = {
  sv_mac : Ethernet.Mac_addr.t option;
  sv_tx_ring : Ring.t option;
  sv_rx_ring : Ring.t option;
  sv_status_addr : Memory.Addr.t option;
  sv_tx_prod : int;
  sv_tx_fetch_next : int;
  sv_tx_cons : int;
  sv_rx_prod : int;
  sv_rx_use_next : int;
  sv_rx_cons : int;
  sv_tx_expected_seqno : int;
  sv_rx_expected_seqno : int;
  sv_tx_meta : Ethernet.Frame.t list;
  sv_tx_completed_unread : int;
  sv_rx_completions : (int * Ethernet.Frame.t) list;
  sv_tx_frames : int;
  sv_rx_frames : int;
}

(* Snapshot a context's architectural state so the hypervisor can page it
   out and later restore it on any free slot, without losing transmit
   work. Read-only: the caller revokes/deactivates the slot afterwards,
   and the normal epoch machinery unwinds whatever is in flight.

   Transmit must be lossless — guests have no retransmit path — so the
   fetch cursor and expected seqno are rolled back over everything the
   engine consumed but did not finish wiring: staged ready-FIFO packets
   (their metas are re-staged for the restore), partially assembled
   scatter/gather fragments, and the in-flight descriptor fetch if any.
   The one frame currently on the wire is instead credited as completed:
   its bits are already leaving the NIC, and its completion callback will
   observe the epoch bump and skip the accounting we do here. Receive is
   allowed to be lossy (peers retransmit); only an in-flight descriptor
   fetch that has not yet consumed a seqno rolls the cursor back, keeping
   cursor and seqno in lockstep. *)
let[@cdna.acquires "dp-image"] save_context t ~ctx:i =
  let c = ctx t i in
  if not c.active then invalid_arg "Dp.save_context: context not active";
  if c.faulted then invalid_arg "Dp.save_context: context faulted";
  let ready_descs = ref 0 and ready_frames = ref [] in
  for k = 0 to t.ready_len - 1 do
    let j = (t.ready_head + k) mod ready_depth in
    if Int.equal t.ready_cid.(j) i && t.ready_epoch.(j) = c.epoch then begin
      ready_descs := !ready_descs + t.ready_descs.(j);
      ready_frames := t.ready_frame.(j) :: !ready_frames
    end
  done;
  let ready_frames = List.rev !ready_frames in
  let in_fetch = t.fetch_busy && Int.equal t.fetch_ctx i in
  let rollback_cursor =
    !ready_descs + c.sg_frag_descs + (if in_fetch then 1 else 0)
  in
  let rollback_seq =
    !ready_descs + c.sg_frag_descs
    + (if in_fetch && t.fetch_checked then 1 else 0)
  in
  let rx_unchecked =
    Int.equal t.rx_ctx i && t.rx_epoch = c.epoch && not t.rx_cur_checked
  in
  let wire_descs =
    if Int.equal t.wire_ctx i && t.wire_epoch = c.epoch then t.wire_descs
    else 0
  in
  let seq_back s r = (((s - r) mod seqno_mod) + seqno_mod) mod seqno_mod in
  trace_event t ~tid:i
    ~args:
      [
        ("ctx", Sim.Trace.Int i);
        ("rollback_descs", Sim.Trace.Int rollback_cursor);
      ]
    "ctx-save";
  {
    sv_mac = c.mac;
    sv_tx_ring = c.tx_ring;
    sv_rx_ring = c.rx_ring;
    sv_status_addr = c.status_addr;
    sv_tx_prod = c.tx_prod;
    sv_tx_fetch_next = c.tx_fetch_next - rollback_cursor;
    sv_tx_cons = c.tx_cons + wire_descs;
    sv_rx_prod = c.rx_prod;
    sv_rx_use_next = c.rx_use_next - (if rx_unchecked then 1 else 0);
    sv_rx_cons = c.rx_cons;
    sv_tx_expected_seqno = seq_back c.tx_expected_seqno rollback_seq;
    sv_rx_expected_seqno = c.rx_expected_seqno;
    sv_tx_meta = ready_frames @ Sim.Fifo.to_list c.tx_meta;
    sv_tx_completed_unread = c.tx_completed_unread + wire_descs;
    sv_rx_completions =
      List.combine
        (Sim.Fifo.to_list c.rx_done_idx)
        (Sim.Fifo.to_list c.rx_done_frame);
    sv_tx_frames = c.tx_frames + (if wire_descs > 0 then 1 else 0);
    sv_rx_frames = c.rx_frames;
  }

(* Install a saved image on a fully reset slot. The ring geometry, the
   cursors and the expected seqnos are written directly (hardware-side
   restore, not driver doorbells — the doorbell paths reject producer
   rewinds by design), then the engines are kicked to resume exactly
   where the save left off. *)
let[@cdna.releases "dp-image@1"] restore_context t ~ctx:i s =
  let c = ctx t i in
  if c.active || c.faulted then
    invalid_arg "Dp.restore_context: slot not reset";
  trace_event t ~tid:i ~args:[ ("ctx", Sim.Trace.Int i) ] "ctx-restore";
  c.active <- true;
  c.faulted <- false;
  c.mac <- s.sv_mac;
  (match s.sv_mac with
  | Some mac -> Hashtbl.replace t.mac_table mac i
  | None -> ());
  c.tx_ring <- s.sv_tx_ring;
  c.rx_ring <- s.sv_rx_ring;
  c.status_addr <- s.sv_status_addr;
  c.tx_prod <- s.sv_tx_prod;
  c.tx_fetch_next <- s.sv_tx_fetch_next;
  c.tx_cons <- s.sv_tx_cons;
  c.rx_prod <- s.sv_rx_prod;
  c.rx_use_next <- s.sv_rx_use_next;
  c.rx_cons <- s.sv_rx_cons;
  c.tx_expected_seqno <- s.sv_tx_expected_seqno;
  c.rx_expected_seqno <- s.sv_rx_expected_seqno;
  List.iter (Sim.Fifo.push c.tx_meta) s.sv_tx_meta;
  c.tx_completed_unread <- s.sv_tx_completed_unread;
  List.iter
    (fun (idx, frame) ->
      Sim.Fifo.push c.rx_done_idx idx;
      Sim.Fifo.push c.rx_done_frame frame)
    s.sv_rx_completions;
  c.tx_frames <- s.sv_tx_frames;
  c.rx_frames <- s.sv_rx_frames;
  (* Completions that were pending at save time may have had their
     interrupt consumed before the swap; re-notify so the driver drains
     them (coalescing absorbs any redundancy). *)
  if
    s.sv_tx_completed_unread > 0
    || (match s.sv_rx_completions with [] -> false | _ :: _ -> true)
  then t.notify ~ctx:i;
  run_tx_fetch t;
  run_rx t

let is_active t ~ctx:i = (ctx t i).active
let mac_of t ~ctx:i = (ctx t i).mac

let set_promiscuous t ~ctx:i =
  (match i with Some i -> ignore (ctx t i) | None -> ());
  t.promiscuous <- i

let is_faulted t ~ctx:i = (ctx t i).faulted

let set_tx_ring t ~ctx:i ring = (ctx t i).tx_ring <- Some ring
let set_rx_ring t ~ctx:i ring = (ctx t i).rx_ring <- Some ring
let set_status_addr t ~ctx:i addr = (ctx t i).status_addr <- Some addr

let set_expected_seqno t ~ctx:i ~tx ~rx =
  let c = ctx t i in
  c.tx_expected_seqno <- tx mod seqno_mod;
  c.rx_expected_seqno <- rx mod seqno_mod

let tx_doorbell t ~ctx:i ~prod =
  let c = ctx t i in
  if prod < c.tx_prod then invalid_arg "Dp.tx_doorbell: producer went backwards";
  c.tx_prod <- prod;
  run_tx_fetch t

let rx_doorbell t ~ctx:i ~prod =
  let c = ctx t i in
  if prod < c.rx_prod then invalid_arg "Dp.rx_doorbell: producer went backwards";
  c.rx_prod <- prod;
  run_rx t

let[@cdna.hot] stage_tx_meta t ~ctx:i frame = Sim.Fifo.push (ctx t i).tx_meta frame

let take_tx_completions t ~ctx:i =
  let c = ctx t i in
  let n = c.tx_completed_unread in
  c.tx_completed_unread <- 0;
  n

let take_rx_completions t ~ctx:i ~max =
  let c = ctx t i in
  let rec drain n acc =
    if n = 0 || Sim.Fifo.is_empty c.rx_done_idx then List.rev acc
    else begin
      let idx = Sim.Fifo.pop c.rx_done_idx in
      let frame = Sim.Fifo.pop c.rx_done_frame in
      drain (n - 1) ((idx, frame) :: acc)
    end
  in
  drain max []

let rx_completions_pending t ~ctx:i = Sim.Fifo.length (ctx t i).rx_done_idx
let rx_congested t = t.congested
let set_uncongested_hook t f = t.uncongested_hook <- f

let stats t =
  {
    tx_frames = t.s_tx_frames;
    tx_bytes = t.s_tx_bytes;
    rx_frames = t.s_rx_frames;
    rx_bytes = t.s_rx_bytes;
    rx_no_ctx_drops = t.s_no_ctx;
    rx_overflow_drops = t.s_overflow;
    rx_truncated = t.s_truncated;
    faults = t.s_faults;
  }

let ctx_tx_frames t ~ctx:i = (ctx t i).tx_frames
let ctx_rx_frames t ~ctx:i = (ctx t i).rx_frames
let tx_buffer_in_use t = Pkt_buf.in_use t.tx_buf
let rx_buffer_in_use t = Pkt_buf.in_use t.rx_buf

let register_metrics t m ~labels =
  let g name read = Sim.Metrics.gauge m ~labels name read in
  g "nic.tx_frames" (fun () -> t.s_tx_frames);
  g "nic.tx_bytes" (fun () -> t.s_tx_bytes);
  g "nic.rx_frames" (fun () -> t.s_rx_frames);
  g "nic.rx_bytes" (fun () -> t.s_rx_bytes);
  g "nic.rx_no_ctx_drops" (fun () -> t.s_no_ctx);
  g "nic.rx_overflow_drops" (fun () -> t.s_overflow);
  g "nic.rx_truncated" (fun () -> t.s_truncated);
  g "nic.faults" (fun () -> t.s_faults);
  Array.iter
    (fun c ->
      let labels = labels @ [ ("ctx", string_of_int c.id) ] in
      Sim.Metrics.gauge m ~labels "nic.ctx.tx_frames" (fun () -> c.tx_frames);
      Sim.Metrics.gauge m ~labels "nic.ctx.rx_frames" (fun () -> c.rx_frames))
    t.ctxs
