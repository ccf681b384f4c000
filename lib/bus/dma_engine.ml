type fault = [ `Bad_range | `Iommu_denied of Memory.Addr.pfn | `Injected ]

(* What a queued transfer does when it completes. *)
type op =
  | Touch (* timing and checks only: no bytes move *)
  | Into (* host memory -> [buf] at [pos] *)
  | From (* [buf] at [pos] -> host memory *)
  | Words (* two little-endian 32-bit words [lo; hi] -> host memory *)
  | Injected_fault (* completes with [`Injected] *)

let nop_k : (unit, fault) result -> unit = fun _ -> ()

(* One queued transfer. Records are recycled through a free pool, so a
   transfer allocates nothing once the pool has reached the engine's
   working depth. For [Words], [pos] carries [lo] and [hi] [hi]. *)
type transfer = {
  mutable op : op;
  mutable addr : int;
  mutable len : int;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable hi : int;
  mutable k : (unit, fault) result -> unit;
}

type t = {
  engine : Sim.Engine.t;
  mem : Memory.Phys_mem.t;
  bandwidth_bps : int;
  latency : Sim.Time.t;
  mutable iommu : Memory.Iommu.t option;
  mutable injector : (context:int -> addr:Memory.Addr.t -> len:int -> bool) option;
  mutable busy_until : Sim.Time.t;
  mutable transfers : int;
  mutable bytes_moved : int;
  mutable busy_time : Sim.Time.t;
  mutable injected_faults : int;
  (* Transfers in flight, oldest first. Completion times strictly
     increase in submission order ([latency] is fixed and [busy_until]
     only grows, by at least the arbitration slot), so the oldest
     transfer is always the next to complete and one preallocated event
     closure, [complete], serves every transfer. *)
  in_flight : transfer Sim.Fifo.t;
  free : transfer Sim.Fifo.t;
  mutable complete : unit -> unit;
}

let blank () =
  { op = Touch; addr = 0; len = 0; buf = Bytes.empty; pos = 0; hi = 0; k = nop_k }

(* Pop the oldest transfer, land its bytes and run its continuation. *)
let[@cdna.hot] complete t =
  let tr = Sim.Fifo.pop t.in_flight in
  let op = tr.op and addr = tr.addr and len = tr.len in
  let buf = tr.buf and pos = tr.pos and hi = tr.hi and k = tr.k in
  tr.buf <- Bytes.empty;
  tr.k <- nop_k;
  Sim.Fifo.push t.free tr;
  match op with
  | Touch -> k (Ok ())
  | Into ->
      Memory.Phys_mem.read_into t.mem ~addr ~len buf ~pos;
      k (Ok ())
  | From ->
      Memory.Phys_mem.write_sub t.mem ~addr buf ~pos ~len;
      k (Ok ())
  | Words ->
      Memory.Phys_mem.write_u32 t.mem ~addr pos;
      Memory.Phys_mem.write_u32 t.mem ~addr:(addr + 4) hi;
      k (Ok ())
  | Injected_fault -> k (Error `Injected)

let create engine ~mem ?(bandwidth_bps = 8_500_000_000) ?(latency = Sim.Time.ns 600) () =
  if bandwidth_bps <= 0 then invalid_arg "Dma_engine.create: bad bandwidth";
  let t =
    {
      engine;
      mem;
      bandwidth_bps;
      latency;
      iommu = None;
      injector = None;
      busy_until = Sim.Time.zero;
      transfers = 0;
      bytes_moved = 0;
      busy_time = Sim.Time.zero;
      injected_faults = 0;
      in_flight = Sim.Fifo.create ~dummy:(blank ());
      free = Sim.Fifo.create ~dummy:(blank ());
      complete = ignore;
    }
  in
  t.complete <- (fun () -> complete t);
  t

let set_iommu t iommu = t.iommu <- iommu
let set_fault_injector t f = t.injector <- f

(* An injected fault models a parity/timeout error on a transaction that
   was otherwise admitted: it occupies the bus like the real transfer
   would, then completes in error. *)
let[@cdna.hot] injected t ~context ~addr ~len =
  match t.injector with
  | None -> false
  | Some f ->
      let hit =
        (f ~context ~addr ~len
        [@cdna.alloc_ok "fault injection is test-only instrumentation"])
      in
      if hit then t.injected_faults <- t.injected_faults + 1;
      hit

(* One bounds predicate for the whole bus, shared with Phys_mem so the
   admission check cannot drift from the memory's own validation. *)
let[@cdna.hot] in_range t ~addr ~len =
  Memory.Phys_mem.valid_range t.mem ~addr ~len

let[@cdna.hot] iommu_check t ~context ~addr ~len =
  match t.iommu with
  | None -> Ok ()
  | Some iommu ->
      let pages =
        (Memory.Addr.pages_spanned ~addr ~len
        [@cdna.alloc_ok
          "page list is bounded by pages-per-frame (<= 2 in practice); \
           only built when an IOMMU is installed"])
      in
      let rec check = function
        | [] -> Ok ()
        | pfn :: rest ->
            if Memory.Iommu.allowed iommu ~context pfn then check rest
            else
              (Error (`Iommu_denied pfn)
              [@cdna.alloc_ok "fault path, not steady state"])
      in
      check pages

(* Per-transaction arbitration overhead occupying the bus; the request
   latency itself is pipelined (it delays completion but not the next
   transfer). *)
let arbitration = Sim.Time.ns 40

let op_name = function
  | Into -> "read"
  | From | Words -> "write"
  | Touch | Injected_fault -> "access"

(* Occupy the bus and queue the transfer; its completion event fires
   [t.complete]. [name] is the traced operation (an injected fault keeps
   the name of the transfer it replaced). *)
let[@cdna.hot] submit t ~name ~context op ~addr ~len ~buf ~pos ~hi k =
  let now = Sim.Engine.now t.engine in
  let start = Sim.Time.max now t.busy_until in
  let occupancy =
    Sim.Time.add arbitration
      (Sim.Time.bits_time ~bits:(len * 8) ~rate_bps:t.bandwidth_bps)
  in
  let bus_free = Sim.Time.add start occupancy in
  t.busy_until <- bus_free;
  t.busy_time <- Sim.Time.add t.busy_time occupancy;
  t.transfers <- t.transfers + 1;
  t.bytes_moved <- t.bytes_moved + len;
  if Sim.Trace.tag_enabled "dma" then
    (Sim.Trace.complete ~time:start ~dur:occupancy ~tag:"dma" ~tid:context
       ~args:[ ("len", Sim.Trace.Int len); ("context", Sim.Trace.Int context) ]
       name
    [@cdna.alloc_ok "tracing branch, disabled unless the dma tag is on"]);
  let tr =
    if Sim.Fifo.is_empty t.free then
      (blank () [@cdna.alloc_ok "pool growth, amortized to zero per transfer"])
    else Sim.Fifo.pop t.free
  in
  tr.op <- op;
  tr.addr <- addr;
  tr.len <- len;
  tr.buf <- buf;
  tr.pos <- pos;
  tr.hi <- hi;
  tr.k <- k;
  Sim.Fifo.push t.in_flight tr;
  ignore
    (Sim.Engine.schedule_at t.engine (Sim.Time.add bus_free t.latency)
       t.complete)

(* Range and IOMMU admission, then the bus. A transfer refused here
   completes at once, without occupying the bus. *)
let[@cdna.hot] transfer t ~context op ~addr ~len ~buf ~pos ~hi k =
  if not (in_range t ~addr ~len) then k (Error `Bad_range)
  else
    match iommu_check t ~context ~addr ~len with
    | Error e ->
        k (Error (e :> fault) [@cdna.alloc_ok "fault path, not steady state"])
    | Ok () ->
        let name = op_name op in
        if injected t ~context ~addr ~len then
          submit t ~name ~context Injected_fault ~addr ~len ~buf:Bytes.empty
            ~pos:0 ~hi:0 k
        else submit t ~name ~context op ~addr ~len ~buf ~pos ~hi k

let[@cdna.hot] read_into t ~context ~addr ~len ~dst ~pos k =
  if pos < 0 || len > Bytes.length dst - pos then k (Error `Bad_range)
  else transfer t ~context Into ~addr ~len ~buf:dst ~pos ~hi:0 k

let[@cdna.hot] write_from t ~context ~addr ~src ~pos ~len k =
  if pos < 0 || len > Bytes.length src - pos then k (Error `Bad_range)
  else transfer t ~context From ~addr ~len ~buf:src ~pos ~hi:0 k

let[@cdna.hot] write_words t ~context ~addr ~lo ~hi k =
  transfer t ~context Words ~addr ~len:8 ~buf:Bytes.empty ~pos:lo ~hi k

let[@cdna.hot] access t ~context ~addr ~len k =
  transfer t ~context Touch ~addr ~len ~buf:Bytes.empty ~pos:0 ~hi:0 k

let transfers t = t.transfers
let bytes_moved t = t.bytes_moved
let busy_time t = t.busy_time
let injected_faults t = t.injected_faults

let register_metrics t m =
  Sim.Metrics.gauge m "dma.transfers" (fun () -> t.transfers);
  Sim.Metrics.gauge m "dma.bytes_moved" (fun () -> t.bytes_moved);
  Sim.Metrics.gauge m "dma.busy_ns" (fun () -> Sim.Time.to_ns t.busy_time);
  Sim.Metrics.gauge m "dma.injected_faults" (fun () -> t.injected_faults)
