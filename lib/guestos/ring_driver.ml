(* The NAPI poll and its kernel-work continuation, built once. A poll
   hands its completions to the continuation in the [polled_*] fields:
   both run on the driver's kernel, in order, so the next poll runs only
   after the continuation of the last. *)
type poll_state = {
  mutable poll_k : unit -> unit;
  mutable polled_k : unit -> unit;
  mutable polled_hw : Nic.Driver_if.t;
  mutable polled_tx : int;
  mutable polled_rx : (int * Ethernet.Frame.t) list;
  mutable polled_n_rx : int;
}

type t = {
  dev : Netdev.t;
  post_kernel : cost:Sim.Time.t -> (unit -> unit) -> unit;
  costs : Os_costs.t;
  payload : Netdev.payload;
  mutable hw : Nic.Driver_if.t;
  tx_slots : int;
  rx_slots : int;
  tx_ring_page : Memory.Addr.pfn;
  rx_ring_page : Memory.Addr.pfn;
  status_page : Memory.Addr.pfn;
  tx_pages : Memory.Addr.pfn array;
  rx_pages : Memory.Addr.pfn array;
  mutable ready : bool;
  mutable tx_prod : int;
  mutable tx_cons_seen : int;
  mutable rx_prod : int;
  mutable repost_rx : int -> unit;
  tx_batch : Memory.Dma_desc.batch;
  rx_batch : Memory.Dma_desc.batch;
  mutable poll_scheduled : bool;
  mutable tx_count : int;
  mutable rx_count : int;
  mutable polls : int;
  poll : poll_state;
}

let check_slots name n =
  if n < 2 || n > 256 || n land (n - 1) <> 0 then
    invalid_arg (name ^ ": slots must be a power of two in [2, 256]")

let[@cdna.hot] tx_page t idx =
  Memory.Addr.base_of_pfn t.tx_pages.(idx land (t.tx_slots - 1))

let[@cdna.hot] rx_page t idx =
  Memory.Addr.base_of_pfn t.rx_pages.(idx land (t.rx_slots - 1))

let[@cdna.hot] rec list_length n = function
  | [] -> n
  | _ :: rest -> list_length (n + 1) rest

(* Read received frames back from their buffers, in order. *)
let[@cdna.hot] rec read_rx t = function
  | [] -> []
  | (idx, frame) :: rest ->
      let frame =
        (Netdev.read_payload t.payload ~addr:(rx_page t idx) frame
        [@cdna.protection_ok
          "the driver's own rx buffer page, after the device completed it"]
        [@cdna.alloc_ok
          "materialized mode only: the frame carries the bytes read back"])
      in
      (frame :: read_rx t rest
      [@cdna.alloc_ok "the stack takes received frames as a list"])

let[@cdna.hot] schedule_poll t =
  t.poll_scheduled <- true;
  t.post_kernel ~cost:t.costs.Os_costs.driver_wakeup_fixed t.poll.poll_k

let[@cdna.hot] poll t =
  t.polls <- t.polls + 1;
  t.poll_scheduled <- false;
  let hw = t.hw in
  t.poll.polled_hw <- hw;
  t.poll.polled_tx <- hw.Nic.Driver_if.take_tx_completions ();
  let rxs =
    hw.Nic.Driver_if.take_rx_completions ~max:t.costs.Os_costs.rx_poll_budget
  in
  let n_rx = list_length 0 rxs in
  t.poll.polled_rx <- rxs;
  t.poll.polled_n_rx <- n_rx;
  t.post_kernel
    ~cost:(Sim.Time.mul_int t.costs.Os_costs.driver_rx_per_pkt n_rx)
    t.poll.polled_k

let[@cdna.hot] polled t =
  let hw = t.poll.polled_hw and tx_done = t.poll.polled_tx in
  let rxs = t.poll.polled_rx and n_rx = t.poll.polled_n_rx in
  t.poll.polled_rx <- [];
  if tx_done > 0 then begin
    t.tx_cons_seen <- t.tx_cons_seen + tx_done;
    t.tx_count <- t.tx_count + tx_done;
    (Netdev.pump t.dev;
     Netdev.notify_tx_done t.dev tx_done;
     (* A pump that writes the ring itself has woken the stack already;
        one that hands frames to a hypercall has not, and the wake comes
        here, after the tx-done upcall. *)
     Netdev.wake_if_writable t.dev
    [@cdna.alloc_ok "the driver's pump and the guest stack's tx-done upcalls"])
  end;
  if n_rx > 0 then begin
    let frames = read_rx t rxs in
    t.repost_rx n_rx;
    t.rx_count <- t.rx_count + n_rx;
    (Netdev.deliver_rx t.dev frames
    [@cdna.alloc_ok "the guest stack's receive upcall"])
  end;
  (* NAPI: keep polling while the device has more work. *)
  if hw.Nic.Driver_if.rx_completions_pending () > 0 && not t.poll_scheduled
  then schedule_poll t

let create ~name ~mac ~post_kernel ~costs ~mem ~materialize ~hw ~alloc_pages
    ~tx_slots ~rx_slots =
  check_slots (name ^ " tx") tx_slots;
  check_slots (name ^ " rx") rx_slots;
  let page1 l = match l with [ p ] -> p | _ -> assert false in
  let tx_ring_page = page1 (alloc_pages 1) in
  let rx_ring_page = page1 (alloc_pages 1) in
  let status_page = page1 (alloc_pages 1) in
  let tx_pages = Array.of_list (alloc_pages tx_slots) in
  let rx_pages = Array.of_list (alloc_pages rx_slots) in
  let batch_limit = max 1 costs.Os_costs.tx_batch_limit in
  let t =
  {
    dev = Netdev.queued ~mac ~post_kernel ~costs;
    post_kernel;
    costs;
    payload = Netdev.payload mem ~materialize;
    hw;
    tx_slots;
    rx_slots;
    tx_ring_page;
    rx_ring_page;
    status_page;
    tx_pages;
    rx_pages;
    ready = false;
    tx_prod = 0;
    tx_cons_seen = 0;
    rx_prod = 0;
    repost_rx = ignore;
    tx_batch = Memory.Dma_desc.batch batch_limit;
    rx_batch = Memory.Dma_desc.batch batch_limit;
    poll_scheduled = false;
    tx_count = 0;
    rx_count = 0;
    polls = 0;
    poll =
      {
        poll_k = ignore;
        polled_k = ignore;
        polled_hw = hw;
        polled_tx = 0;
        polled_rx = [];
        polled_n_rx = 0;
      };
  }
  in
  t.poll.poll_k <- (fun () -> poll t);
  t.poll.polled_k <- (fun () -> polled t);
  t

let[@cdna.hot] tx_room t =
  if t.ready then t.tx_slots - (t.tx_prod - t.tx_cons_seen) else 0

let attach t ~pump ~repost_rx =
  t.repost_rx <- repost_rx;
  Netdev.attach t.dev ~room:(fun () -> tx_room t) ~pump

let bring_up t =
  t.ready <- true;
  t.repost_rx t.rx_slots;
  Netdev.pump t.dev;
  Netdev.notify_writable t.dev

let reset t hw =
  t.hw <- hw;
  t.ready <- false;
  t.tx_prod <- 0;
  t.tx_cons_seen <- 0;
  t.rx_prod <- 0;
  t.poll_scheduled <- false

let handle_interrupt t = if not t.poll_scheduled then schedule_poll t
