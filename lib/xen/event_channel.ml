type t = {
  hyp : Hypervisor.t;
  target : Domain.t;
  isr_cost : Sim.Time.t;
  handler : unit -> unit;
  mutable pending : bool;
  mutable deliveries : int;
  mutable merged : int;
  (* The virtual ISR and the dispatch that posts it, built once. *)
  mutable isr : unit -> unit;
  mutable deliver_k : unit -> unit;
}

let target t = t.target

(* Mark pending and post the target's virtual ISR. Runs in whatever
   context performs the dispatch; the dispatch cost itself is charged by
   the callers below. *)
let[@cdna.hot] deliver t =
  if t.pending then t.merged <- t.merged + 1
  else begin
    t.pending <- true;
    t.deliveries <- t.deliveries + 1;
    Domain.incr_virq t.target;
    if Sim.Trace.tag_enabled "irq" then
      (Sim.Trace.instant
         ~time:(Sim.Engine.now (Hypervisor.engine t.hyp))
         ~tag:"irq"
         ~pid:(Domain.id t.target + 1)
         ~args:[ ("domain", Sim.Trace.Str (Domain.name t.target)) ]
         "virq"
      [@cdna.alloc_ok "tracing branch, disabled unless the irq tag is on"]);
    Host.Cpu.post (Hypervisor.cpu t.hyp) (Domain.entity t.target)
      ~category:(Domain.kernel t.target) ~cost:t.isr_cost t.isr
  end

let create hyp ~target ~isr_cost ~handler =
  let t =
    {
      hyp;
      target;
      isr_cost;
      handler;
      pending = false;
      deliveries = 0;
      merged = 0;
      isr = ignore;
      deliver_k = ignore;
    }
  in
  t.isr <-
    (fun () ->
      t.pending <- false;
      t.handler ());
  t.deliver_k <- (fun () -> deliver t);
  t

let notify t ~from =
  let costs = Hypervisor.costs t.hyp in
  Hypervisor.hypercall t.hyp ~from
    ~cost:(Sim.Time.add costs.Costs.event_notify costs.Costs.virq_dispatch)
    t.deliver_k

let[@cdna.hot] notify_from_hypervisor t =
  let costs = Hypervisor.costs t.hyp in
  Host.Cpu.post_irq (Hypervisor.cpu t.hyp) ~cost:costs.Costs.virq_dispatch
    t.deliver_k

let deliveries t = t.deliveries
let merged t = t.merged

let reset_counters t =
  t.deliveries <- 0;
  t.merged <- 0
