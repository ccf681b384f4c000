type payload = {
  mem : Memory.Phys_mem.t;
  materialize : bool;
  (* Reused staging buffer for generating spec-only payloads; per
     instance, and [Phys_mem.write_sub] copies synchronously, so reuse is
     safe. *)
  mutable scratch : Bytes.t;
}

let payload mem ~materialize = { mem; materialize; scratch = Bytes.empty }

(* Land a frame's payload in a buffer page without allocating: frames that
   carry bytes are written directly, spec-only frames are generated into
   the scratch buffer first. *)
let[@cdna.protection_ok
     "CPU store into a buffer page the caller owns, not DMA; each caller \
      in lib/nic and lib/guestos is P2-checked itself"] write_payload p
    ~addr frame =
  if p.materialize then
    match frame.Ethernet.Frame.data with
    | Generated d | Other d -> Memory.Phys_mem.write_string p.mem ~addr d
    | Spec_only ->
        let len = frame.Ethernet.Frame.payload_len in
        if Bytes.length p.scratch < len then
          p.scratch <- Bytes.create (max len 2048);
        Ethernet.Frame.blit_payload ~seed:frame.Ethernet.Frame.payload_seed
          ~len p.scratch ~pos:0;
        Memory.Phys_mem.write_sub p.mem ~addr p.scratch ~pos:0 ~len

(* Reading the bytes back, rather than trusting the frame record, makes
   memory corruption (e.g. protection violations) observable end to end.
   Bytes are immutable, so when memory still holds exactly the frame's
   bytes the frame itself is the read-back: compare, don't copy. Any
   difference attaches a copy of memory as [Other] bytes, which the sink
   checks against the spec. *)
let[@cdna.protection_ok
     "CPU load from a buffer page the caller owns, not DMA; each caller in \
      lib/nic and lib/guestos is P2-checked itself"] read_payload p ~addr
    frame =
  if not p.materialize then frame
  else
    let len = frame.Ethernet.Frame.payload_len in
    match frame.Ethernet.Frame.data with
    | (Generated d | Other d)
      when String.length d = len && Memory.Phys_mem.equal_string p.mem ~addr d
      ->
        frame
    | Spec_only | Generated _ | Other _ ->
        (* A fresh copy, never aliased: freezing it is sound. *)
        Ethernet.Frame.with_bytes frame
          (Bytes.unsafe_to_string (Memory.Phys_mem.read p.mem ~addr ~len))

type t = {
  mac : Ethernet.Mac_addr.t;
  mutable send_impl : Ethernet.Frame.t list -> unit;
  mutable tx_space_impl : unit -> int;
  (* The driver transmit queue of a [queued] device. *)
  pending : Ethernet.Frame.t Queue.t;
  mutable was_full : bool;
  mutable pump : unit -> unit;
  mutable rx_handler : Ethernet.Frame.t list -> unit;
  mutable tx_done_handler : int -> unit;
  mutable writable_hook : unit -> unit;
  mutable sent : int;
  mutable received : int;
}

let create ~mac ~send ~tx_space =
  {
    mac;
    send_impl = send;
    tx_space_impl = tx_space;
    pending = Queue.create ();
    was_full = false;
    pump = ignore;
    rx_handler = (fun _ -> ());
    tx_done_handler = (fun _ -> ());
    writable_hook = (fun () -> ());
    sent = 0;
    received = 0;
  }

let enqueue t ~post_kernel ~per_pkt frames =
  let n = List.length frames in
  if n > 0 then
    post_kernel ~cost:(Sim.Time.mul_int per_pkt n) (fun () ->
        List.iter (fun f -> Queue.push f t.pending) frames;
        t.pump ();
        if not (Queue.is_empty t.pending) then t.was_full <- true)

let queued ~mac ~post_kernel ~costs =
  let t = create ~mac ~send:ignore ~tx_space:(fun () -> 0) in
  let per_pkt = costs.Os_costs.driver_tx_per_pkt in
  t.send_impl <- (fun frames -> enqueue t ~post_kernel ~per_pkt frames);
  t

let attach t ~room ~pump =
  t.pump <- pump;
  t.tx_space_impl <- (fun () -> max 0 (room () - Queue.length t.pending))

let pending t = t.pending
let pump t = t.pump ()

let wake_if_writable t =
  if t.was_full && t.tx_space_impl () > 0 then begin
    t.was_full <- false;
    t.writable_hook ()
  end

let mac t = t.mac

let send t frames =
  t.sent <- t.sent + List.length frames;
  t.send_impl frames

let tx_space t = t.tx_space_impl ()
let set_rx_handler t f = t.rx_handler <- f
let set_tx_done_handler t f = t.tx_done_handler <- f
let set_writable_hook t f = t.writable_hook <- f

let deliver_rx t frames =
  t.received <- t.received + List.length frames;
  t.rx_handler frames

let notify_tx_done t n = t.tx_done_handler n
let notify_writable t = t.writable_hook ()
let frames_sent t = t.sent
let frames_received t = t.received

let reset_counters t =
  t.sent <- 0;
  t.received <- 0
