module Ring = Guestos.Ring_driver

type t = {
  hyp : Hyp.t;
  ring : Ring.t;
  mutable handle : Hyp.ctx_handle;
  mutable tx_enqueue_busy : bool;
  mutable rx_enqueue_busy : bool;
  mutable rx_repost_backlog : int;
  mutable enqueue_errors : int;
  mutable recoveries : int;
  mutable generation : int;
      (* Bumped on rebind; in-flight hypercall continuations from the
         previous binding must not touch the new context. *)
}

let page_addr = Memory.Addr.base_of_pfn

let descriptor ~addr ~len ~flags =
  { Memory.Dma_desc.addr; len; flags; seqno = 0 }

(* ---------- Transmit ---------- *)

let rec pump_tx t () =
  let r = t.ring in
  let pending = Guestos.Netdev.pending r.dev in
  if r.ready && (not t.tx_enqueue_busy) && not (Queue.is_empty pending)
  then begin
    let k =
      min (Ring.tx_room r)
        (min (Queue.length pending) r.costs.Guestos.Os_costs.tx_batch_limit)
    in
    if k > 0 then begin
      let frames = List.init k (fun _ -> Queue.pop pending) in
      (* Stage payload bytes in this driver's own buffer pages. *)
      let descs =
        List.mapi
          (fun i frame ->
            let addr = Ring.tx_page r (r.tx_prod + i) in
            Guestos.Netdev.write_payload r.payload ~addr frame;
            descriptor ~addr ~len:frame.Ethernet.Frame.payload_len
              ~flags:Memory.Dma_desc.flag_end_of_packet)
          frames
      in
      t.tx_enqueue_busy <- true;
      let generation = t.generation in
      Hyp.enqueue t.hyp t.handle Hyp.Tx descs (fun result ->
          (* Continuation runs at hypercall completion; the doorbell PIO
             is the guest's own (small) kernel work. A rebind in between
             invalidates it. *)
          if t.generation <> generation then ()
          else
          match result with
          | Ok prod ->
              r.post_kernel
                ~cost:(Hyp.costs t.hyp).Cdna_costs.pio_doorbell (fun () ->
                  if t.generation <> generation then ()
                  else begin
                  List.iter r.hw.Nic.Driver_if.stage_tx_meta frames;
                  r.tx_prod <- prod;
                  r.hw.Nic.Driver_if.tx_doorbell prod;
                  t.tx_enqueue_busy <- false;
                  pump_tx t ();
                  Guestos.Netdev.wake_if_writable r.dev
                  end)
          | Error _ ->
              t.enqueue_errors <- t.enqueue_errors + 1;
              t.tx_enqueue_busy <- false;
              (* Requeue the batch at the front, preserving order. *)
              let rest = Queue.create () in
              Queue.transfer pending rest;
              List.iter (fun f -> Queue.push f pending) frames;
              Queue.transfer rest pending)
    end
  end

(* ---------- Receive buffer posting ---------- *)

let rec post_rx_buffers t =
  let r = t.ring in
  if r.ready && (not t.rx_enqueue_busy) && t.rx_repost_backlog > 0 then begin
    let k = min t.rx_repost_backlog r.costs.Guestos.Os_costs.tx_batch_limit in
    t.rx_repost_backlog <- t.rx_repost_backlog - k;
    let descs =
      List.init k (fun i ->
          descriptor ~addr:(Ring.rx_page r (r.rx_prod + i))
            ~len:Memory.Addr.page_size ~flags:0)
    in
    t.rx_enqueue_busy <- true;
    let generation = t.generation in
    Hyp.enqueue t.hyp t.handle Hyp.Rx descs (fun result ->
        if t.generation <> generation then ()
        else
        match result with
        | Ok prod ->
            r.post_kernel ~cost:(Hyp.costs t.hyp).Cdna_costs.pio_doorbell
              (fun () ->
                if t.generation <> generation then ()
                else begin
                  r.rx_prod <- prod;
                  r.hw.Nic.Driver_if.rx_doorbell prod;
                  t.rx_enqueue_busy <- false;
                  post_rx_buffers t
                end)
        | Error _ ->
            t.enqueue_errors <- t.enqueue_errors + 1;
            t.rx_repost_backlog <- t.rx_repost_backlog + k;
            t.rx_enqueue_busy <- false)
  end

let repost_rx t n =
  t.rx_repost_backlog <- t.rx_repost_backlog + n;
  post_rx_buffers t

(* Asynchronous bring-up: register rings and status with the hypervisor,
   then post the full complement of receive buffers (replacing any
   backlog) and send whatever is already queued. Used both at creation
   and after a migration rebind. *)
let initialize t =
  let r = t.ring in
  Hyp.set_event_handler t.handle (fun () -> Ring.handle_interrupt r);
  Hyp.register_ring t.hyp t.handle Hyp.Tx
    ~base:(page_addr r.tx_ring_page) ~slots:r.tx_slots (fun _ ->
      Hyp.register_ring t.hyp t.handle Hyp.Rx
        ~base:(page_addr r.rx_ring_page) ~slots:r.rx_slots (fun _ ->
          Hyp.register_status t.hyp t.handle
            ~addr:(page_addr r.status_page) (fun _ ->
              t.rx_repost_backlog <- 0;
              Ring.bring_up r)))

let create ~hyp ~handle ~costs ?(tx_slots = 256) ?(rx_slots = 256)
    ?(materialize = false) () =
  let xen = Hyp.xen hyp in
  let guest = Hyp.guest_of handle in
  let ring =
    Ring.create ~name:"Cdna.Driver" ~mac:(Hyp.mac_of handle)
      ~post_kernel:(Xen.Hypervisor.kernel_work xen guest)
      ~costs ~mem:(Xen.Hypervisor.mem xen) ~materialize
      ~hw:(Hyp.driver_if handle)
      ~alloc_pages:(Xen.Hypervisor.alloc_pages xen guest)
      ~tx_slots ~rx_slots
  in
  let t =
    {
      hyp;
      ring;
      handle;
      tx_enqueue_busy = false;
      rx_enqueue_busy = false;
      rx_repost_backlog = 0;
      enqueue_errors = 0;
      recoveries = 0;
      generation = 0;
    }
  in
  Ring.attach ring ~pump:(pump_tx t) ~repost_rx:(repost_rx t);
  initialize t;
  t

let rebind t handle =
  t.generation <- t.generation + 1;
  t.handle <- handle;
  Ring.reset t.ring (Hyp.driver_if handle);
  t.tx_enqueue_busy <- false;
  t.rx_enqueue_busy <- false;
  t.rx_repost_backlog <- 0;
  initialize t

(* Guest-driven fault recovery: when the NIC halts this driver's context
   with a protection fault, ask the hypervisor for a fresh context (same
   MAC, bounded retry/backoff inside {!Hyp.reassign}) and rebind to it.
   Frames lost on the halted context are the transport's problem, exactly
   as for migration. *)
let rec enable_auto_recovery ?max_retries ?backoff t =
  Hyp.set_fault_hook t.handle (fun () ->
      Hyp.reassign t.hyp t.handle ?max_retries ?backoff (function
        | Ok fresh ->
            t.recoveries <- t.recoveries + 1;
            rebind t fresh;
            enable_auto_recovery ?max_retries ?backoff t
        | Error `No_free_context -> ()))

let netdev t = t.ring.dev
let ready t = t.ring.ready
let tx_count t = t.ring.tx_count
let rx_count t = t.ring.rx_count
let polls t = t.ring.polls
let handle_interrupt t = Ring.handle_interrupt t.ring
let enqueue_errors t = t.enqueue_errors
let recoveries t = t.recoveries
let handle t = t.handle
