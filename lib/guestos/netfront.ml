type t = {
  hyp : Xen.Hypervisor.t;
  gnt : Xen.Grant_table.t;
  dom : Xen.Domain.t;
  costs : Os_costs.t;
  xchan : Xchan.t;
  notify_backend : unit -> unit;
  dev : Netdev.t;
  payload : Netdev.payload;
  pool : Memory.Addr.pfn Queue.t;
  mutable event_pending : bool;
  mutable tx_count : int;
  mutable rx_count : int;
}

let post_kernel t ~cost fn = Xen.Hypervisor.kernel_work t.hyp t.dom ~cost fn

(* Move pending frames onto the shared ring, attaching a pool page each,
   and kick the back end once per batch. Runs in guest kernel context. *)
let pump t () =
  let pending = Netdev.pending t.dev in
  let pushed = ref 0 in
  let was_empty = Xchan.tx_used t.xchan = 0 in
  let continue = ref true in
  while
    !continue
    && (not (Queue.is_empty pending))
    && Xchan.tx_space t.xchan > 0
  do
    match Queue.take_opt t.pool with
    | None -> continue := false
    | Some pfn ->
        let frame = Queue.pop pending in
        (Netdev.write_payload t.payload ~addr:(Memory.Addr.base_of_pfn pfn)
           frame
        [@cdna.protection_ok
          "guest CPU store into the guest's own granted pool page, not DMA"]);
        ignore (Xchan.tx_push t.xchan { Xchan.frame; pfn });
        incr pushed
  done;
  if !pushed > 0 then begin
    t.tx_count <- t.tx_count + !pushed;
    (* Event-index protocol: only notify when the back end may have gone
       idle on this ring (it was empty); otherwise it will poll the new
       requests on its next run. *)
    if was_empty then t.notify_backend ()
  end;
  Netdev.wake_if_writable t.dev

(* Event from netback: take completions (with replacement pages) and
   received packets, charge per-packet kernel time, return the receive
   pages, deliver upward. *)
let rec handle_event t =
  t.event_pending <- false;
  let completed, replacement_pages = Xchan.take_tx_completions t.xchan in
  let rec drain n acc =
    if n = 0 then List.rev acc
    else
      match Xchan.rx_pop t.xchan with
      | None -> List.rev acc
      | Some e -> drain (n - 1) (e :: acc)
  in
  let rxs = drain t.costs.Os_costs.rx_poll_budget [] in
  let n_rx = List.length rxs in
  if completed > 0 || n_rx > 0 then begin
    let cost = Sim.Time.mul_int t.costs.Os_costs.driver_rx_per_pkt n_rx in
    post_kernel t ~cost (fun () ->
        List.iter (fun p -> Queue.push p t.pool) replacement_pages;
        if completed > 0 then begin
          pump t ();
          Netdev.notify_tx_done t.dev completed
        end;
        if n_rx > 0 then begin
          (* Flip the receive pages straight back to the driver domain to
             refill its exchange pool (one hypercall for the batch). *)
          let costs = Xen.Hypervisor.costs t.hyp in
          Xen.Hypervisor.hypercall t.hyp ~from:t.dom
            ~cost:(Sim.Time.mul_int costs.Xen.Costs.grant_transfer n_rx)
            (fun () ->
              match Xen.Hypervisor.driver_domain t.hyp with
              | None -> ()
              | Some driver ->
                  List.iter
                    (fun e ->
                      match
                        Xen.Grant_table.flip t.gnt ~src:t.dom ~dst:driver
                          e.Xchan.pfn
                      with
                      | Ok () -> Xchan.push_returned_page t.xchan e.Xchan.pfn
                      | Error (`Not_owner | `Pinned) -> ())
                    rxs);
          t.rx_count <- t.rx_count + n_rx;
          let frames =
            List.map
              (fun e ->
                (Netdev.read_payload t.payload
                   ~addr:(Memory.Addr.base_of_pfn e.Xchan.pfn) e.Xchan.frame
                [@cdna.protection_ok
                  "guest CPU load from a page the hypervisor just flipped \
                   to this guest, not DMA"]))
              rxs
          in
          Netdev.deliver_rx t.dev frames
        end;
        (* Continue draining if the ring still has packets. *)
        if Xchan.rx_used t.xchan > 0 && not t.event_pending then begin
          t.event_pending <- true;
          post_kernel t ~cost:t.costs.Os_costs.driver_wakeup_fixed (fun () ->
              handle_event t)
        end)
  end

let create ~hyp ~gnt ~dom ~costs ~xchan ~mac ~notify_backend
    ?(pool_pages = 1024) ?(materialize = false) () =
  let pool = Queue.create () in
  List.iter (fun p -> Queue.push p pool) (Xen.Hypervisor.alloc_pages hyp dom pool_pages);
  let t =
    {
      hyp;
      gnt;
      dom;
      costs;
      xchan;
      notify_backend;
      dev =
        Netdev.queued ~mac ~post_kernel:(Xen.Hypervisor.kernel_work hyp dom)
          ~costs;
      payload = Netdev.payload (Xen.Hypervisor.mem hyp) ~materialize;
      pool;
      event_pending = false;
      tx_count = 0;
      rx_count = 0;
    }
  in
  Netdev.attach t.dev
    ~room:(fun () -> min (Xchan.tx_space xchan) (Queue.length pool))
    ~pump:(pump t);
  t

let netdev t = t.dev
let dom t = t.dom
let pool_size t = Queue.length t.pool
let tx_count t = t.tx_count
let rx_count t = t.rx_count

let register_metrics t m =
  let labels = [ ("domain", Xen.Domain.name t.dom) ] in
  Sim.Metrics.gauge m ~labels "netfront.tx_count" (fun () -> t.tx_count);
  Sim.Metrics.gauge m ~labels "netfront.rx_count" (fun () -> t.rx_count);
  Sim.Metrics.gauge m ~labels "netfront.pool_size" (fun () ->
      Queue.length t.pool)
