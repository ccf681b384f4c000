(* Work items waiting on an entity (or on a runqueue's IRQ line), as
   three FIFOs in lockstep: posting allocates nothing once they have
   grown to the working depth. *)
type work_fifo = {
  costs : Sim.Time.t Sim.Fifo.t;
  cats : Category.t Sim.Fifo.t;
  fns : (unit -> unit) Sim.Fifo.t;
}

type entity = {
  id : int;
  name : string;
  weight : int;
  domain : Category.domain_id;
  (* Entitled runtime in integer nanoseconds. Fixed-point (not float)
     so credit arithmetic is exact: runqueue migration must not be able
     to introduce float-associativity drift between shard counts. *)
  mutable credits : int;
  mutable boosted : bool;
  mutable runtime : Sim.Time.t;
  mutable cpu : int; (* index of the runqueue the entity lives on *)
  (* One-shot extra dispatch cost after a cross-CPU migration (IPI +
     cold-cache refill), consumed by the next dispatch. *)
  mutable migrate_penalty : Sim.Time.t;
}

(* One per-CPU runqueue. With [cpus = 1] the scheduler degenerates to
   the original single-CPU behaviour, event for event. The one item in
   flight lives in the [cur_*] fields and is completed by [complete], a
   closure built once per runqueue, so a dispatch allocates nothing. *)
type rq = {
  cpu_id : int;
  irq_queue : work_fifo;
  mutable resident : entity list; (* arrival order on this runqueue *)
  boost_fifo : entity Sim.Fifo.t;
  none : entity; (* sentinel: no entity (idle, or IRQ work) *)
  mutable current : entity; (* [none] before the first dispatch *)
  mutable slice_used : Sim.Time.t;
  mutable busy : bool;
  mutable total_busy : Sim.Time.t;
  mutable switches : int;
  (* The in-flight item: its entity ([none] for IRQ work), category,
     continuation, start time, switch cost and total cost. *)
  mutable cur_entity : entity;
  mutable cur_cost : Sim.Time.t;
  mutable cur_cat : Category.t;
  mutable cur_fn : unit -> unit;
  mutable cur_start : Sim.Time.t;
  mutable cur_switch : Sim.Time.t;
  mutable cur_total : Sim.Time.t;
  mutable complete : unit -> unit;
}

type t = {
  engine : Sim.Engine.t;
  profile : Profile.t;
  ctx_switch_cost : Sim.Time.t;
  slice : Sim.Time.t;
  credit_period : Sim.Time.t;
  migration_cost : Sim.Time.t;
  rqs : rq array;
  (* Each entity's pending work, indexed by entity id. Kept out of the
     entity so a domain record holds no closures and stays comparable. *)
  mutable queues : work_fifo array;
  mutable entities : entity list; (* registration order, all CPUs *)
  mutable next_id : int;
  mutable migrations : int;
  mutable replenish_ev : Sim.Engine.event_id option;
  mutable stopped : bool;
}

let nop () = ()

let work_fifo () =
  {
    costs = Sim.Fifo.create ~dummy:0;
    cats = Sim.Fifo.create ~dummy:Category.Hypervisor;
    fns = Sim.Fifo.create ~dummy:nop;
  }

let[@cdna.hot] pending q = Sim.Fifo.length q.fns

let[@cdna.hot] push_work q ~cost ~category fn =
  Sim.Fifo.push q.costs cost;
  Sim.Fifo.push q.cats category;
  Sim.Fifo.push q.fns fn

(* Move the oldest item of [q] into [rq]'s in-flight slot. *)
let[@cdna.hot] take_work rq q =
  rq.cur_cost <- Sim.Fifo.pop q.costs;
  rq.cur_cat <- Sim.Fifo.pop q.cats;
  rq.cur_fn <- Sim.Fifo.pop q.fns

let make_entity ~id ~name ~weight ~domain ~cpu =
  {
    id;
    name;
    weight;
    domain;
    credits = 0;
    boosted = false;
    runtime = 0;
    cpu;
    migrate_penalty = 0;
  }

let make_rq none cpu_id =
  {
    cpu_id;
    irq_queue = work_fifo ();
    resident = [];
    boost_fifo = Sim.Fifo.create ~dummy:none;
    none;
    current = none;
    slice_used = 0;
    busy = false;
    total_busy = 0;
    switches = 0;
    cur_entity = none;
    cur_cost = 0;
    cur_cat = Category.Hypervisor;
    cur_fn = nop;
    cur_start = 0;
    cur_switch = 0;
    cur_total = 0;
    complete = nop;
  }

(* Periodic credit replenishment, proportional to weights. Accounting is
   global (like Xen's credit scheduler): an entity's share does not
   depend on which runqueue it currently sits on. *)
let rec replenish t () =
  let total_weight =
    List.fold_left (fun acc e -> acc + e.weight) 0 t.entities
  in
  if total_weight > 0 then begin
    let period_ns = Sim.Time.to_ns t.credit_period in
    List.iter
      (fun e ->
        let share = period_ns * e.weight / total_weight in
        (* Bank at most one period's worth of the entity's own share, as
           in Xen's credit scheduler: an idle low-weight domain must not
           accumulate a full period and burst past its entitlement. *)
        e.credits <- Int.min share (e.credits + share))
      t.entities
  end;
  if not t.stopped then
    t.replenish_ev <-
      Some (Sim.Engine.schedule t.engine ~delay:t.credit_period (replenish t))

let[@cdna.hot] queue_of t e = t.queues.(e.id)
let[@cdna.hot] runnable t e = pending (queue_of t e) > 0

(* Pop boosted entities until one is still runnable and still resident
   here (an entity can migrate away between boost and dispatch). *)
let[@cdna.hot] rec pop_boosted t rq =
  if Sim.Fifo.is_empty rq.boost_fifo then rq.none
  else begin
    let e = Sim.Fifo.pop rq.boost_fifo in
    if e.cpu <> rq.cpu_id then pop_boosted t rq
    else begin
      e.boosted <- false;
      if runnable t e then e else pop_boosted t rq
    end
  end

(* The runnable entity with the most credits, the earliest resident on a
   tie; [none] when nothing is runnable. *)
let[@cdna.hot] rec best_by_credits t none best = function
  | [] -> best
  | e :: rest ->
      let best =
        if not (runnable t e) then best
        else if best == none || e.credits > best.credits then e
        else best
      in
      best_by_credits t none best rest

let[@cdna.hot] pick_entity t rq =
  (* Stickiness: keep the current entity while it has work, its slice is
     not exhausted, and no boosted entity is waiting. *)
  let boosted_waiting = not (Sim.Fifo.is_empty rq.boost_fifo) in
  let cur = rq.current in
  if
    cur != rq.none && runnable t cur && (not boosted_waiting)
    && Sim.Time.compare rq.slice_used t.slice < 0
  then cur
  else begin
    let e = pop_boosted t rq in
    if e != rq.none then e else best_by_credits t rq.none rq.none rq.resident
  end

let[@cdna.hot] rec dispatch t rq =
  if rq.busy then ()
  else if pending rq.irq_queue > 0 then begin
    take_work rq rq.irq_queue;
    execute t rq ~entity:rq.none ~switch:0
  end
  else begin
    let e = pick_entity t rq in
    if e != rq.none then begin
      (* CPU idles until the next post wakes it when [e] is [none]. *)
      let switch =
        if rq.current == e then 0
        else begin
          rq.switches <- rq.switches + 1;
          t.ctx_switch_cost
        end
      in
      (* A freshly migrated entity pays the IPI + cache-affinity
         penalty on top of the ordinary switch, once. *)
      let switch =
        if e.migrate_penalty > 0 then begin
          let p = e.migrate_penalty in
          e.migrate_penalty <- 0;
          Sim.Time.add switch p
        end
        else switch
      in
      if rq.current != e then begin
        rq.current <- e;
        rq.slice_used <- 0
      end;
      take_work rq (queue_of t e);
      execute t rq ~entity:e ~switch
    end
  end

and[@cdna.hot] execute t rq ~entity ~switch =
  rq.busy <- true;
  let total = Sim.Time.add switch rq.cur_cost in
  rq.cur_entity <- entity;
  rq.cur_start <- Sim.Engine.now t.engine;
  rq.cur_switch <- switch;
  rq.cur_total <- total;
  ignore (Sim.Engine.schedule t.engine ~delay:total rq.complete)

(* The in-flight item's completion: charge it, then run its continuation
   (which may post, and so dispatch, again) and dispatch the next. *)
and[@cdna.hot] complete t rq =
  let start = rq.cur_start and switch = rq.cur_switch in
  let total = rq.cur_total and entity = rq.cur_entity in
  let fn = rq.cur_fn in
  rq.cur_fn <- nop;
  let stop = Sim.Engine.now t.engine in
  if switch > 0 then
    Profile.charge t.profile Category.Hypervisor ~start
      ~stop:(Sim.Time.add start switch);
  Profile.charge t.profile rq.cur_cat ~start:(Sim.Time.add start switch) ~stop;
  rq.total_busy <- Sim.Time.add rq.total_busy total;
  if entity != rq.none then begin
    entity.runtime <- Sim.Time.add entity.runtime total;
    entity.credits <- entity.credits - Sim.Time.to_ns total;
    rq.slice_used <- Sim.Time.add rq.slice_used total
  end;
  if Sim.Trace.tag_enabled "sched" then
    (trace_slice rq ~entity ~start ~total ~switch
    [@cdna.alloc_ok "tracing branch, disabled unless the sched tag is on"]);
  rq.busy <- false;
  fn ();
  dispatch t rq

and trace_slice rq ~entity ~start ~total ~switch =
  let name, pid, tid =
    if entity != rq.none then (entity.name, entity.domain + 1, entity.id)
    else ("irq", 0, 0)
  in
  Sim.Trace.complete ~time:start ~dur:total ~tag:"sched" ~pid ~tid
    ~args:
      [
        ( "category",
          Sim.Trace.Str (Format.asprintf "%a" Category.pp rq.cur_cat) );
        ("switch_ns", Sim.Trace.Int (Sim.Time.to_ns switch));
      ]
    name

let create engine ?(cpus = 1) ?(ctx_switch_cost = Sim.Time.ns 2_500)
    ?(slice = Sim.Time.ms 1) ?(credit_period = Sim.Time.ms 30)
    ?(migration_cost = Sim.Time.us 9) ~profile () =
  if cpus <= 0 then invalid_arg "Cpu.create: non-positive cpus";
  let none = make_entity ~id:(-1) ~name:"none" ~weight:1 ~domain:(-1) ~cpu:(-1) in
  let t =
    {
      engine;
      profile;
      ctx_switch_cost;
      slice;
      credit_period;
      migration_cost;
      rqs = Array.init cpus (make_rq none);
      queues = [||];
      entities = [];
      next_id = 0;
      migrations = 0;
      replenish_ev = None;
      stopped = false;
    }
  in
  Array.iter (fun rq -> rq.complete <- (fun () -> complete t rq)) t.rqs;
  t.replenish_ev <-
    Some (Sim.Engine.schedule engine ~delay:t.credit_period (replenish t));
  t

let stop t =
  t.stopped <- true;
  match t.replenish_ev with
  | Some ev ->
      Sim.Engine.cancel t.engine ev;
      t.replenish_ev <- None
  | None -> ()

let num_cpus t = Array.length t.rqs

let add_entity t ~name ~weight ~domain =
  if weight <= 0 then invalid_arg "Cpu.add_entity: non-positive weight";
  let ncpus = Array.length t.rqs in
  (* Round-robin initial placement: entity i starts on runqueue i mod n.
     On a single-CPU host everything lands on runqueue 0, as before. *)
  let cpu = t.next_id mod ncpus in
  let e = make_entity ~id:t.next_id ~name ~weight ~domain ~cpu in
  t.next_id <- t.next_id + 1;
  t.queues <- Array.append t.queues [| work_fifo () |];
  t.entities <- t.entities @ [ e ];
  let rq = t.rqs.(cpu) in
  rq.resident <- rq.resident @ [ e ];
  e

let domain_of e = e.domain
let name_of e = e.name
let runtime_of e = e.runtime
let credits_of e = float_of_int e.credits /. 1000.
let cpu_of e = e.cpu

(* Work pending on [rq] other than entity [e]'s own queue. *)
let rq_busy_besides t rq e =
  let rec others = function
    | [] -> false
    | x :: rest -> (x != e && runnable t x) || others rest
  in
  rq.busy || pending rq.irq_queue > 0 || others rq.resident

(* Deterministic wake balancing: the lowest-index completely idle
   runqueue, if any. *)
let find_idle_rq t =
  let n = Array.length t.rqs in
  let rec scan i =
    if i >= n then None
    else begin
      let rq = t.rqs.(i) in
      if
        (not rq.busy) && pending rq.irq_queue = 0
        && not (List.exists (runnable t) rq.resident)
      then Some rq
      else scan (i + 1)
    end
  in
  scan 0

let migrate t e ~to_rq =
  let from_rq = t.rqs.(e.cpu) in
  from_rq.resident <- List.filter (fun x -> x != e) from_rq.resident;
  if from_rq.current == e then from_rq.current <- from_rq.none;
  to_rq.resident <- to_rq.resident @ [ e ];
  e.cpu <- to_rq.cpu_id;
  e.migrate_penalty <- t.migration_cost;
  t.migrations <- t.migrations + 1

(* SMP wake balancing: the runqueue a waking entity should be boosted
   on, migrating it there first when its home CPU is occupied and
   another CPU is completely idle. *)
let wake_rq t e home =
  if Array.length t.rqs > 1 && rq_busy_besides t home e then
    match find_idle_rq t with
    | Some dst ->
        migrate t e ~to_rq:dst;
        dst
    | None -> home
  else home

let[@cdna.hot] post t e ~category ~cost fn =
  if cost < 0 then invalid_arg "Cpu.post: negative cost";
  let q = queue_of t e in
  let was_blocked = pending q = 0 in
  push_work q ~cost ~category fn;
  let home = t.rqs.(e.cpu) in
  (* Boost-on-wake, like Xen's credit scheduler: a blocked entity that
     receives an event runs ahead of entities burning their timeslice.
     On an SMP host the wake may also migrate the entity to an idle
     runqueue when its home CPU is occupied (wake balancing). *)
  if was_blocked && (not e.boosted) && home.current != e then begin
    let rq =
      if Array.length t.rqs > 1 then
        (wake_rq t e home
        [@cdna.alloc_ok "SMP wake balancing; single-CPU hosts never enter"])
      else home
    in
    e.boosted <- true;
    Sim.Fifo.push rq.boost_fifo e;
    dispatch t rq
  end
  else dispatch t t.rqs.(e.cpu)

let[@cdna.hot] post_irq t ?cpu ~cost fn =
  let cpu = match cpu with Some c -> c | None -> 0 in
  if cost < 0 then invalid_arg "Cpu.post_irq: negative cost";
  if cpu < 0 || cpu >= Array.length t.rqs then
    invalid_arg "Cpu.post_irq: cpu out of range";
  let rq = t.rqs.(cpu) in
  push_work rq.irq_queue ~cost ~category:Category.Hypervisor fn;
  dispatch t rq

let is_idle t =
  Array.for_all (fun rq -> (not rq.busy) && pending rq.irq_queue = 0) t.rqs
  && List.for_all (fun e -> not (runnable t e)) t.entities

let total_busy t =
  Array.fold_left (fun acc rq -> Sim.Time.add acc rq.total_busy) 0 t.rqs

let ctx_switches t =
  Array.fold_left (fun acc rq -> acc + rq.switches) 0 t.rqs

let migrations t = t.migrations

let register_metrics t m =
  Sim.Metrics.gauge m "cpu.ctx_switches" (fun () -> ctx_switches t);
  Sim.Metrics.gauge m "cpu.busy_ns" (fun () -> Sim.Time.to_ns (total_busy t));
  (* SMP-only series are registered only on SMP hosts so single-CPU
     metric snapshots (the golden fixtures) are unchanged. *)
  if Array.length t.rqs > 1 then begin
    Sim.Metrics.gauge m "cpu.migrations" (fun () -> t.migrations);
    Array.iter
      (fun rq ->
        let labels = [ ("cpu", string_of_int rq.cpu_id) ] in
        Sim.Metrics.gauge m ~labels "cpu.rq.busy_ns" (fun () ->
            Sim.Time.to_ns rq.total_busy);
        Sim.Metrics.gauge m ~labels "cpu.rq.ctx_switches" (fun () ->
            rq.switches))
      t.rqs
  end;
  List.iter
    (fun e ->
      let labels =
        [ ("entity", e.name); ("domain", string_of_int e.domain) ]
      in
      Sim.Metrics.gauge m ~labels "cpu.entity.runtime_ns" (fun () ->
          Sim.Time.to_ns e.runtime);
      Sim.Metrics.gauge_f m ~labels "cpu.entity.credits_us" (fun () ->
          credits_of e))
    t.entities
