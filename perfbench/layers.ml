(* Per-layer metrics of the traced run, read from outside the simulator:
   registry counters differenced over the measured window, the
   measurement's Xenoprof-style profile, and host-time estimates built
   from isolated timings of each layer's public hot function. *)

module C = Experiments.Config
module T = Experiments.Testbed
module R = Experiments.Run

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (k - 1)))

(* ---------- isolated timings of each layer's hot function ---------- *)

(* Host ns per operation: [f] performs [ops] operations per call; the
   median over five ~40 ms batches after one discarded batch. *)
let ns_per_op ~ops f =
  let batch () =
    let t0 = Unix.gettimeofday () and calls = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.04 do
      f ();
      incr calls
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (!calls * ops)
  in
  ignore (batch ());
  median (List.init 5 (fun _ -> batch ()))

(* sim: schedule one event and fire it. *)
let sim_event () =
  let e = Sim.Engine.create () in
  ns_per_op ~ops:10_000 (fun () ->
      for i = 1 to 10_000 do
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ns i) ignore)
      done;
      ignore (Sim.Engine.run_to_completion e))

(* bus: one 1500 B DMA read into device scratch, through its completion
   event. *)
let bus_dma () =
  let e = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:4 () in
  let dma = Bus.Dma_engine.create e ~mem () in
  let dst = Bytes.create 1500 in
  let k = function
    | Ok () -> ()
    | Error _ -> failwith "bus estimate: DMA fault"
  in
  ns_per_op ~ops:100 (fun () ->
      for _ = 1 to 100 do
        Bus.Dma_engine.read_into dma ~context:0 ~addr:0 ~len:1500 ~dst ~pos:0 k
      done;
      ignore (Sim.Engine.run_to_completion e))

(* memory: write one DMA descriptor into guest memory and read it back. *)
let memory_desc () =
  let mem = Memory.Phys_mem.create ~total_pages:4 () in
  let d =
    { Memory.Dma_desc.addr = 0x1000; len = 1500; flags = 1; seqno = 42 }
  in
  ns_per_op ~ops:1000 (fun () ->
      for _ = 1 to 1000 do
        Memory.Dma_desc.write mem ~at:64 d;
        ignore (Memory.Dma_desc.read mem ~at:64)
      done)

(* nic: one mailbox write and its bit-vector decode by the firmware. *)
let nic_mailbox () =
  let mb = Nic.Mailbox.create ~contexts:32 ~on_event:ignore in
  let maps =
    Array.init 32 (fun ctx -> Bus.Mmio.map (Nic.Mailbox.region mb ~ctx))
  in
  ns_per_op ~ops:32 (fun () ->
      Array.iteri (fun ctx m -> Bus.Mmio.write32 m ~offset:20 ctx) maps;
      let rec drain () =
        match Nic.Mailbox.next_event mb with
        | Some (ctx, mbox) ->
            Nic.Mailbox.clear_event mb ~ctx ~mbox;
            drain ()
        | None -> ()
      in
      drain ())

(* xen: one Grant_table.flip between two guests. *)
let xen_flip () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:64 () in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem () in
  let gnt = Xen.Grant_table.create hyp in
  let dom name =
    Xen.Hypervisor.create_domain hyp ~name ~kind:Xen.Domain.Guest ~weight:256
      ~mem_pages:8
  in
  let a = dom "a" and b = dom "b" in
  let page = List.hd (Xen.Domain.pages a) in
  let flip src dst =
    match Xen.Grant_table.flip gnt ~src ~dst page with
    | Ok () -> ()
    | Error _ -> failwith "xen estimate: flip refused"
  in
  ns_per_op ~ops:1000 (fun () ->
      for _ = 1 to 500 do
        flip a b;
        flip b a
      done)

(* guestos: one Bridge.route decision across 26 ports (24 guests, 2
   NICs). *)
let guestos_bridge () =
  let b = Guestos.Bridge.create () in
  let ports = Array.init 26 (fun i -> Guestos.Bridge.add_port b i) in
  Array.iteri
    (fun i p -> Guestos.Bridge.learn b p (Ethernet.Mac_addr.make i))
    ports;
  let frame =
    Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 0)
      ~dst:(Ethernet.Mac_addr.make 13) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0
      ~payload_len:1500 ~payload_seed:0 ()
  in
  ns_per_op ~ops:1000 (fun () ->
      for _ = 1 to 1000 do
        ignore (Guestos.Bridge.route b ~ingress:ports.(0) frame)
      done)

(* ethernet: verify one materialized 1500 B payload, the per-packet
   check a receiving connection runs (Frame.data_valid). *)
let ethernet_verify () =
  let frame =
    Ethernet.Frame.with_data
      (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 0)
         ~dst:(Ethernet.Mac_addr.make 1) ~kind:Ethernet.Frame.Data ~flow:0
         ~seq:0 ~payload_len:1500 ~payload_seed:7 ())
  in
  ns_per_op ~ops:10 (fun () ->
      for _ = 1 to 10 do
        if not (Ethernet.Frame.data_valid frame) then
          failwith "ethernet estimate: payload mismatch"
      done)

type unit_costs = (string * float) list

let unit_costs () : unit_costs =
  [
    ("sim", sim_event ());
    ("bus", bus_dma ());
    ("memory", memory_desc ());
    ("nic", nic_mailbox ());
    ("xen", xen_flip ());
    ("guestos", guestos_bridge ());
    ("ethernet", ethernet_verify ());
  ]

