module Ring_driver = Guestos.Ring_driver

type t = {
  hyp : Hyp.t;
  ring : Ring_driver.t;
  mutable handle : Hyp.ctx_handle;
  mutable tx_enqueue_busy : bool;
  mutable rx_enqueue_busy : bool;
  mutable rx_repost_backlog : int;
  mutable enqueue_errors : int;
  mutable recoveries : int;
  mutable generation : int;
      (* Bumped on rebind; in-flight hypercall continuations from the
         previous binding must not touch the new context. *)
  (* One enqueue in flight per direction: the transmit batch's frames
     (its descriptors are in [ring.tx_batch]), the receive batch's size,
     and the producer index each hypercall returned. *)
  tx_frames : Ethernet.Frame.t array;
  mutable tx_n : int;
  mutable tx_prod_new : int;
  mutable rx_n : int;
  mutable rx_prod_new : int;
  (* The hypercall and doorbell continuations of the current binding,
     built once per binding by [bind]: each ignores a completion that
     arrives after a rebind. *)
  mutable tx_enqueued_k : Hyp.enqueue_result -> unit;
  mutable tx_doorbell_k : unit -> unit;
  mutable rx_enqueued_k : Hyp.enqueue_result -> unit;
  mutable rx_doorbell_k : unit -> unit;
}

let page_addr = Memory.Addr.base_of_pfn

(* ---------- Transmit ---------- *)

(* Put the in-flight batch's frames back at the front of the transmit
   queue, preserving order. *)
let requeue_batch t =
  let pending = Guestos.Netdev.pending t.ring.dev in
  let rest = Queue.create () in
  Queue.transfer pending rest;
  for i = 0 to t.tx_n - 1 do
    Queue.push t.tx_frames.(i) pending
  done;
  Queue.transfer rest pending

let[@cdna.hot] rec pump_tx t () =
  let r = t.ring in
  let pending = Guestos.Netdev.pending r.dev in
  if r.ready && (not t.tx_enqueue_busy) && not (Queue.is_empty pending)
  then begin
    let k =
      min (Ring_driver.tx_room r)
        (min (Queue.length pending) r.costs.Guestos.Os_costs.tx_batch_limit)
    in
    if k > 0 then begin
      let b = r.tx_batch in
      Memory.Dma_desc.batch_clear b;
      for i = 0 to k - 1 do
        let frame = Queue.pop pending in
        t.tx_frames.(i) <- frame;
        (* Stage payload bytes in this driver's own buffer pages. *)
        let addr = Ring_driver.tx_page r (r.tx_prod + i) in
        (Guestos.Netdev.write_payload r.payload ~addr frame
        [@cdna.alloc_ok "materialized mode only: a spec-only payload is generated into the driver's scratch"]);
        Memory.Dma_desc.batch_add b ~addr
          ~len:frame.Ethernet.Frame.payload_len
          ~flags:Memory.Dma_desc.flag_end_of_packet
      done;
      t.tx_n <- k;
      t.tx_enqueue_busy <- true;
      Hyp.enqueue t.hyp t.handle Hyp.Tx b t.tx_enqueued_k
    end
  end

(* Hypercall completion; the doorbell PIO is the guest's own (small)
   kernel work. *)
and[@cdna.hot] tx_enqueued t (result : Hyp.enqueue_result) =
  let r = t.ring in
  match result with
  | Ok () ->
      t.tx_prod_new <- Hyp.producer t.handle Hyp.Tx;
      r.post_kernel ~cost:(Hyp.costs t.hyp).Cdna_costs.pio_doorbell
        t.tx_doorbell_k
  | Error _ ->
      t.enqueue_errors <- t.enqueue_errors + 1;
      t.tx_enqueue_busy <- false;
      (requeue_batch t [@cdna.alloc_ok "rejected batch: fault path"])

and[@cdna.hot] tx_doorbell t =
  let r = t.ring in
  for i = 0 to t.tx_n - 1 do
    r.hw.Nic.Driver_if.stage_tx_meta t.tx_frames.(i)
  done;
  t.tx_n <- 0;
  r.tx_prod <- t.tx_prod_new;
  r.hw.Nic.Driver_if.tx_doorbell t.tx_prod_new;
  t.tx_enqueue_busy <- false;
  pump_tx t ();
  (Guestos.Netdev.wake_if_writable r.dev
  [@cdna.alloc_ok "the guest stack's writable upcall"])

(* ---------- Receive buffer posting ---------- *)

let[@cdna.hot] rec post_rx_buffers t =
  let r = t.ring in
  if r.ready && (not t.rx_enqueue_busy) && t.rx_repost_backlog > 0 then begin
    let k = min t.rx_repost_backlog r.costs.Guestos.Os_costs.tx_batch_limit in
    t.rx_repost_backlog <- t.rx_repost_backlog - k;
    let b = r.rx_batch in
    Memory.Dma_desc.batch_clear b;
    for i = 0 to k - 1 do
      Memory.Dma_desc.batch_add b
        ~addr:(Ring_driver.rx_page r (r.rx_prod + i))
        ~len:Memory.Addr.page_size ~flags:0
    done;
    t.rx_n <- k;
    t.rx_enqueue_busy <- true;
    Hyp.enqueue t.hyp t.handle Hyp.Rx b t.rx_enqueued_k
  end

and[@cdna.hot] rx_enqueued t (result : Hyp.enqueue_result) =
  match result with
  | Ok () ->
      t.rx_prod_new <- Hyp.producer t.handle Hyp.Rx;
      t.ring.post_kernel ~cost:(Hyp.costs t.hyp).Cdna_costs.pio_doorbell
        t.rx_doorbell_k
  | Error _ ->
      t.enqueue_errors <- t.enqueue_errors + 1;
      t.rx_repost_backlog <- t.rx_repost_backlog + t.rx_n;
      t.rx_enqueue_busy <- false

and[@cdna.hot] rx_doorbell t =
  let r = t.ring in
  r.rx_prod <- t.rx_prod_new;
  r.hw.Nic.Driver_if.rx_doorbell t.rx_prod_new;
  t.rx_enqueue_busy <- false;
  post_rx_buffers t

(* Build the current binding's continuations. *)
let bind t =
  let generation = t.generation in
  let current () = t.generation = generation in
  t.tx_enqueued_k <- (fun result -> if current () then tx_enqueued t result);
  t.tx_doorbell_k <- (fun () -> if current () then tx_doorbell t);
  t.rx_enqueued_k <- (fun result -> if current () then rx_enqueued t result);
  t.rx_doorbell_k <- (fun () -> if current () then rx_doorbell t)

let repost_rx t n =
  t.rx_repost_backlog <- t.rx_repost_backlog + n;
  post_rx_buffers t

(* Asynchronous bring-up: register rings and status with the hypervisor,
   then post the full complement of receive buffers (replacing any
   backlog) and send whatever is already queued. Used both at creation
   and after a migration rebind. *)
let initialize t =
  let r = t.ring in
  Hyp.set_event_handler t.handle (fun () -> Ring_driver.handle_interrupt r);
  Hyp.register_ring t.hyp t.handle Hyp.Tx
    ~base:(page_addr r.tx_ring_page) ~slots:r.tx_slots (fun _ ->
      Hyp.register_ring t.hyp t.handle Hyp.Rx
        ~base:(page_addr r.rx_ring_page) ~slots:r.rx_slots (fun _ ->
          Hyp.register_status t.hyp t.handle
            ~addr:(page_addr r.status_page) (fun _ ->
              t.rx_repost_backlog <- 0;
              Ring_driver.bring_up r)))

let create ~hyp ~handle ~costs ?(tx_slots = 256) ?(rx_slots = 256)
    ?(materialize = false) () =
  let xen = Hyp.xen hyp in
  let guest = Hyp.guest_of handle in
  let ring =
    Ring_driver.create ~name:"Cdna.Driver" ~mac:(Hyp.mac_of handle)
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
      tx_frames =
        Array.make
          (max 1 costs.Guestos.Os_costs.tx_batch_limit)
          (Ethernet.Frame.make ~src:(Hyp.mac_of handle)
             ~dst:(Hyp.mac_of handle) ~kind:Ethernet.Frame.Data ~flow:0
             ~seq:0 ~payload_len:0 ~payload_seed:0 ());
      tx_n = 0;
      tx_prod_new = 0;
      rx_n = 0;
      rx_prod_new = 0;
      tx_enqueued_k = ignore;
      tx_doorbell_k = ignore;
      rx_enqueued_k = ignore;
      rx_doorbell_k = ignore;
    }
  in
  bind t;
  Ring_driver.attach ring ~pump:(pump_tx t) ~repost_rx:(repost_rx t);
  initialize t;
  t

let rebind t handle =
  t.generation <- t.generation + 1;
  bind t;
  t.tx_n <- 0;
  t.handle <- handle;
  Ring_driver.reset t.ring (Hyp.driver_if handle);
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
let handle_interrupt t = Ring_driver.handle_interrupt t.ring
let enqueue_errors t = t.enqueue_errors
let recoveries t = t.recoveries
let handle t = t.handle
