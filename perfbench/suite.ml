(* The benchmark's workloads and the timed repetition that drives them.

   Everything here is measured from outside the simulator: the harness
   times only its own calls into public functions (Testbed.build,
   tb.start, Sim.Engine.run ~until, Run.reset_after_warmup/collect,
   Multihost.run ~prepare) and reads counts through public accessors
   and the Sim.Metrics registry. *)

module C = Experiments.Config
module T = Experiments.Testbed
module R = Experiments.Run
module MH = Experiments.Multihost

let now = Unix.gettimeofday

type shape = Single | Multi of { hosts : int; shards : int; workers : int }

type anchor =
  | Published of float * string  (** Mb/s and the figure it comes from. *)
  | Derived of float * string
      (** Mb/s derived from a published point; the workload itself is
          unvalidated. *)

type t = {
  name : string;
  shape : shape;
  base : C.t;  (** Seed is filled in from the command line. *)
  anchor : anchor;
}

(* Closed loop in every workload, with Config.default's traffic and
   timing: 2 window-48 connections per guest per NIC, 1500 B payloads,
   60 ms warm-up and a 200 ms measured window (the paper figures'
   settings, so paper_err_pct matches what `cdna_sim figure` shows). *)
let all =
  [
    (* Fig. 4's collapse endpoint: grant flips, netback + bridge,
       scheduling across 25 domains and real byte movement. *)
    {
      name = "xen-rx-24g";
      shape = Single;
      base =
          {
            C.default with
            C.system = C.Xen_sw;
            nic = C.Intel;
            nics = 2;
            guests = 24;
            pattern = Workload.Pattern.Rx;
            materialize = true;
          };
      anchor = Published (558., "Fig. 4, Xen rx at 24 guests");
    };
    (* Fig. 3's endpoint: the CDNA hypervisor's descriptor validation,
       mailbox bit vectors and NIC DMA fetch, the highest event rate. *)
    {
      name = "cdna-tx-24g";
      shape = Single;
      base =
          {
            C.default with
            C.system = C.Cdna_sys;
            nic = C.Ricenic;
            nics = 2;
            guests = 24;
            pattern = Workload.Pattern.Tx;
            protection = Cdna.Cdna_costs.Full;
            materialize = false;
          };
      anchor = Published (1867., "Fig. 3, CDNA tx at 24 guests");
    };
    (* Twice as many guests as hardware contexts on one NIC: context
       paging runs, and the 64-guest build is a large share of wall
       time. *)
    {
      name = "cdna-oversub-64g";
      shape = Single;
      base =
          {
            C.default with
            C.system = C.Cdna_sys;
            nic = C.Ricenic;
            nics = 1;
            guests = 2 * Cdna.Cnic.num_contexts;
            pattern = Workload.Pattern.Tx;
          };
      anchor =
        Derived (1867. /. 2., "one NIC's share of Fig. 3's 2-NIC CDNA tx");
    };
    (* The only workload that crosses Sim.Shard barriers. One worker
       domain: on a shared 2-vCPU host a 2-worker run's wall time moves
       by 15-24% between runs (every window barrier waits for the other
       vCPU), too much for a gate; the traced run times 2 workers for
       sim.shard.worker_speedup. *)
    {
      name = "multihost4-1w";
      shape = Multi { hosts = 4; shards = 4; workers = 1 };
      base =
          {
            C.default with
            C.system = C.Cdna_sys;
            nic = C.Ricenic;
            nics = 1;
            guests = 1;
            pattern = Workload.Pattern.Tx;
          };
      anchor =
        Derived (1867. /. 2., "one NIC's share of Fig. 3's 2-NIC CDNA tx");
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
let config w ~seed = { w.base with C.seed }
let stop (cfg : C.t) = Sim.Time.add cfg.C.warmup cfg.C.duration
let anchor_mbps = function Published (v, _) | Derived (v, _) -> v

(* ---------- one repetition ---------- *)

type rep = {
  started : float;  (** Wall clock at the start of the build. *)
  setup_s : float;  (** Testbed.build (multihost: up to [prepare]). *)
  run_s : float;  (** start through warm-up, window and collect. *)
  setup_words : float;  (** Minor words over the [setup_s] interval. *)
  alloc_words : float;  (** Minor words over the [run_s] interval. *)
  ms : R.measurement list;  (** One per host, in host order. *)
  tbs : T.t list;
  routed : int;  (** Cross-shard messages (0 off the sharded engine). *)
}

(* Hooks of the traced run; [plain] is the untraced run. [span] wraps one
   harness call, [slice] splits the measured window into [Engine.run]
   steps of that simulated length, [at_warm] fires right after
   [Run.reset_after_warmup], and [prepare] is handed to Multihost.run. *)
type hooks = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  slice : Sim.Time.t option;
  at_warm : T.t -> unit;
  prepare : MH.t -> unit;
}

let plain =
  {
    span = (fun _ f -> f ());
    slice = None;
    at_warm = ignore;
    prepare = ignore;
  }

(* Minor words allocated by every domain so far. The forced minor
   collection folds the calling domain's young allocations into the
   shared statistics, which already hold the sharded run's worker domains
   once they have been joined. Called only between timed intervals. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let run_single hooks (cfg : C.t) =
  let w0 = minor_words () in
  let t0 = now () in
  let tb = hooks.span "build" (fun () -> T.build cfg) in
  let t1 = now () in
  let w1 = minor_words () in
  let t1' = now () in
  hooks.span "start" tb.T.start;
  hooks.span "warmup" (fun () ->
      Sim.Engine.run tb.T.engine ~until:cfg.C.warmup);
  let b = hooks.span "reset" (fun () -> R.reset_after_warmup cfg tb) in
  hooks.at_warm tb;
  let stop = stop cfg in
  (match hooks.slice with
  | None ->
      hooks.span "measure" (fun () -> Sim.Engine.run tb.T.engine ~until:stop)
  | Some dt ->
      let rec go at =
        let until = Sim.Time.min stop (Sim.Time.add at dt) in
        hooks.span "slice" (fun () -> Sim.Engine.run tb.T.engine ~until);
        if Sim.Time.compare until stop < 0 then go until
      in
      go cfg.C.warmup);
  let m = hooks.span "collect" (fun () -> R.collect cfg tb b) in
  let t2 = now () in
  let w2 = minor_words () in
  {
    started = t0;
    setup_s = t1 -. t0;
    run_s = t2 -. t1';
    setup_words = w1 -. w0;
    alloc_words = w2 -. w1;
    ms = [ m ];
    tbs = [ tb ];
    routed = 0;
  }

let run_multi hooks ~hosts ~shards ~workers (cfg : C.t) =
  let t1 = ref nan and t1' = ref nan and w1 = ref nan in
  let w0 = minor_words () in
  let t0 = now () in
  let rep, mh =
    MH.run ~shards ~workers ~hosts
      ~prepare:(fun mh ->
        t1 := now ();
        w1 := minor_words ();
        hooks.prepare mh;
        t1' := now ())
      cfg
  in
  let t2 = now () in
  let w2 = minor_words () in
  {
    started = t0;
    setup_s = !t1 -. t0;
    run_s = t2 -. !t1';
    setup_words = !w1 -. w0;
    alloc_words = w2 -. !w1;
    ms = rep.MH.measurements;
    tbs = Array.to_list (Array.map (fun h -> h.MH.tb) mh.MH.hosts);
    routed = rep.MH.messages_routed;
  }

(* [shape] overrides the workload's own (the shards-1/workers-1 twin and
   the worker/split comparisons of the traced run). *)
let run ?(hooks = plain) ?shape w ~seed =
  let cfg = config w ~seed in
  (* Each repetition starts from a collected heap, so one repetition's
     garbage is not charged to the next one's build. *)
  Gc.full_major ();
  match Option.value shape ~default:w.shape with
  | Single -> run_single hooks cfg
  | Multi { hosts; shards; workers } ->
      run_multi hooks ~hosts ~shards ~workers cfg

(* ---------- what the simulated system produced ---------- *)

(* Sum of every series of each metric name (labels dropped). Meters
   count their events, histograms their samples. *)
let totals (reg : Sim.Metrics.t) =
  let rec num = function
    | Sim.Json.Int i -> float_of_int i
    | Sim.Json.Float f -> f
    | Sim.Json.Obj _ as o -> (
        match (Sim.Json.member "events" o, Sim.Json.member "count" o) with
        | Some v, _ | None, Some v -> num v
        | None, None -> 0.)
    | _ -> 0.
  in
  List.fold_left
    (fun acc (key, v) ->
      let name =
        match String.index_opt key '{' with
        | Some i -> String.sub key 0 i
        | None -> key
      in
      let prev = Option.value (List.assoc_opt name acc) ~default:0. in
      (name, prev +. num v) :: List.remove_assoc name acc)
    []
    (Sim.Metrics.snapshot reg)

let get totals name = Option.value (List.assoc_opt name totals) ~default:0.

(* Cumulative counters of testbeds, summed over them. *)
let counters tbs =
  let per_host =
    List.map
      (fun tb ->
        ( "xen.grant_flips",
          float_of_int (Xen.Grant_table.flips tb.T.grant_table) )
        :: totals tb.T.metrics)
      tbs
  in
  let names =
    List.sort_uniq String.compare (List.concat_map (List.map fst) per_host)
  in
  List.map
    (fun n -> (n, List.fold_left (fun a t -> a +. get t n) 0. per_host))
    names

(* Exact image of everything the simulation reported: each host's
   measurement (floats in hex) and its whole metrics registry. Two runs
   of one seed must agree on it byte for byte. *)
let digest r =
  let b = Buffer.create 65536 in
  List.iter2
    (fun (m : R.measurement) tb ->
      let p = m.R.profile in
      Printf.bprintf b
        "%s seed=%d|%h|%h|%h %h %h %h %h %h|%h|%h|%h|%d|%d|%d|%h|%h|%h|%d\n"
        (C.describe m.R.config) m.R.config.C.seed m.R.tx_mbps m.R.rx_mbps
        p.Host.Profile.hyp p.Host.Profile.driver_kernel
        p.Host.Profile.driver_user p.Host.Profile.guest_kernel
        p.Host.Profile.guest_user p.Host.Profile.idle
        m.R.driver_virq_per_sec m.R.guest_virq_per_sec m.R.phys_irq_per_sec
        m.R.rx_drops m.R.faults m.R.integrity_failures m.R.latency_p50_us
        m.R.latency_p99_us m.R.fairness m.R.events_fired;
      Buffer.add_string b (Sim.Metrics.to_string tb.T.metrics);
      Buffer.add_char b '\n')
    r.ms r.tbs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let goodput r = List.fold_left (fun a m -> a +. R.primary_mbps m) 0. r.ms

(* Simulated goodput per host against the workload's anchor, in %. *)
let paper_err_pct w r =
  let per_host = goodput r /. float_of_int (List.length r.ms) in
  let a = anchor_mbps w.anchor in
  100. *. Float.abs (per_host -. a) /. a

(* Output checks of one rep: every failure, by description. Beyond the
   simulated system's own health (no corruption, no protection fault,
   traffic flowing) they pin the layer separation each workload was
   chosen for, so a later workload edit cannot silently route around
   the layer it is meant to load. *)
let check w r =
  let t = counters r.tbs in
  let cdna = w.base.C.system = C.Cdna_sys in
  let paged = w.base.C.guests > Cdna.Cnic.num_contexts in
  let sharded = match w.shape with Multi _ -> true | Single -> false in
  let sum f = List.fold_left (fun a m -> a + f m) 0 r.ms in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (sum (fun m -> m.R.integrity_failures) = 0, "integrity_failures = 0");
      (sum (fun m -> m.R.faults) = 0, "NIC protection faults = 0");
      (get t "cdna.faults" = 0., "cdna.faults = 0");
      (List.for_all (fun m -> R.primary_mbps m > 0.) r.ms, "goodput > 0");
      ((not cdna) || get t "xen.grant_flips" = 0., "CDNA: xen.grant_flips = 0");
      ( (not cdna) || get t "netback.runs" = 0.,
        "CDNA: guestos.netback_runs = 0" );
      (cdna || get t "cdna.enqueue_calls" = 0., "Xen: cdna.enqueue_calls = 0");
      (paged = (get t "cdna.ctx_swaps" > 0.),
       "cdna.ctx_swaps > 0 exactly when guests exceed contexts");
      (sharded = (r.routed > 0),
       "sim.shard.messages_routed > 0 exactly on the sharded workload");
    ]
