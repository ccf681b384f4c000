(* The traced run (--trace 1): per-layer metrics of one workload.

   Four groups of repetitions, all of which must reproduce the
   untraced run's sim_digest (so slicing Engine.run ~until, tracing and
   the shard layout are shown to simulate the same program):
   - untraced: the base that sim.trace_overhead_pct divides by;
   - sliced: the measured window driven in 1 ms simulated slices, with a
     host-time span around every harness call (kept in memory and
     written out as Chrome trace JSON at the end) and registry
     counters differenced over the window;
   - sim-traced: a Sim.Trace sink installed (a Recorder plus per-tag
     counts), timed like the untraced group;
   - on the sharded workload, the same hosts on 2 workers and on 1
     shard, for the worker speed-up and the split cost.
   Host-time estimates per layer multiply each layer's hot function,
   timed in isolation (Layers.unit_costs), by its count in the window;
   they are estimates, and the sliced window's time they do not cover
   is reported as experiments.unattributed_ms. *)

module C = Experiments.Config
module T = Experiments.Testbed
module R = Experiments.Run
module MH = Experiments.Multihost

let now = Unix.gettimeofday
let median = Layers.median

(* ---------- harness spans ---------- *)

let origin = now ()
let recorder = Sim.Trace.Recorder.create ()

(* One host-time span: the group of repetitions is its Chrome process,
   the repetition its thread. *)
let record ~group ~rep name t0 t1 =
  Sim.Trace.Recorder.sink recorder
    {
      Sim.Trace.time = Sim.Time.of_sec_f (t0 -. origin);
      tag = "harness";
      name;
      phase = Sim.Trace.Complete (Sim.Time.of_sec_f (t1 -. t0));
      pid = group;
      tid = rep;
      args = [];
    }

let groups =
  [ (1, "untraced"); (2, "sliced"); (3, "sim-traced"); (4, "shard layouts") ]

let rep_no = ref 0

let timed_rep ?hooks ?shape ~group w ~seed =
  incr rep_no;
  let r = Tally.attempt ?hooks ?shape w ~seed in
  Option.iter
    (fun r ->
      let t0 = r.Suite.started in
      let t1 = t0 +. r.Suite.setup_s in
      record ~group ~rep:!rep_no "setup" t0 t1;
      record ~group ~rep:!rep_no "run" t1 (t1 +. r.Suite.run_s))
    r;
  r

(* Median run_s of repetitions without hooks; the testbeds are dropped
   as soon as each is checked. *)
let median_run_s ?shape ?(seconds = 0.) ~group w ~seed =
  median
    (Tally.repeat ~seconds (fun () ->
         Option.map
           (fun r -> r.Suite.run_s)
           (timed_rep ?shape ~group w ~seed)))

(* ---------- the sliced group ---------- *)

(* Readings at the start of the measured window: after
   Run.reset_after_warmup on one host, at Multihost's [prepare] (before
   any event) on the sharded workload, whose window therefore includes
   warm-up. *)
type mark = {
  counters : (string * float) list;
  gc : Gc.stat;
  words : float;
}

type sliced = {
  rep : Suite.rep;
  at : mark;  (** Window start. *)
  upto : mark;  (** Window end (after collect / Multihost.run). *)
  spans : (string * float) list;  (** Harness spans, seconds. *)
}

let mark tbs =
  let words = Suite.minor_words () in
  { counters = Suite.counters tbs; gc = Gc.quick_stat (); words }

let sliced_rep w ~seed =
  let spans = ref [] and at = ref None in
  let hooks =
    {
      Suite.span =
        (fun name f ->
          let t0 = now () in
          let x = f () in
          let t1 = now () in
          spans := (name, t1 -. t0) :: !spans;
          record ~group:2 ~rep:!rep_no name t0 t1;
          x);
      slice = Some (Sim.Time.ms 1);
      at_warm = (fun tb -> at := Some (mark [ tb ]));
      prepare =
        (fun mh ->
          let tbs = Array.map (fun h -> h.MH.tb) mh.MH.hosts in
          at := Some (mark (Array.to_list tbs)));
    }
  in
  timed_rep ~hooks ~group:2 w ~seed
  |> Option.map (fun rep ->
         let upto = mark rep.Suite.tbs in
         { rep; at = Option.get !at; upto; spans = List.rev !spans })

(* ---------- the sim-traced group ---------- *)

let trace_tags = [ "dma"; "sched"; "hypercall"; "irq" ]

(* A Recorder sink (bounded, so a long run cannot exhaust memory) that
   also counts events per tag. One per logical process: the sharded
   workload's LPs drain on different domains. *)
let counting_sink () =
  let counts = Hashtbl.create 16 in
  let r = Sim.Trace.Recorder.create ~limit:100_000 () in
  let fwd = Sim.Trace.Recorder.sink r in
  ( counts,
    fun (ev : Sim.Trace.event) ->
      let tag = ev.Sim.Trace.tag in
      Hashtbl.replace counts tag
        (1 + Option.value (Hashtbl.find_opt counts tag) ~default:0);
      fwd ev )

let sim_traced_rep w ~seed =
  let tables = ref [] in
  let sink () =
    let counts, s = counting_sink () in
    tables := counts :: !tables;
    s
  in
  let hooks =
    {
      Suite.plain with
      prepare =
        (fun mh ->
          Array.iter
            (fun h -> Sim.Shard.Partition.set_sink h.MH.lp (Some (sink ())))
            mh.MH.hosts);
    }
  in
  (match w.Suite.shape with
  | Suite.Single -> Sim.Trace.set_sink (Some (sink ()))
  | Suite.Multi _ -> ());
  let r =
    Fun.protect
      ~finally:(fun () -> Sim.Trace.set_sink None)
      (fun () -> timed_rep ~hooks ~group:3 w ~seed)
  in
  let count tag =
    List.fold_left
      (fun a t -> a + Option.value (Hashtbl.find_opt t tag) ~default:0)
      0 !tables
  in
  Option.map
    (fun r -> (r.Suite.run_s, List.map (fun t -> (t, count t)) trace_tags))
    r

(* ---------- per-layer metrics ---------- *)

(* A fresh Phys_mem.create at each host's size, median of three. *)
let phys_mem_create_ms tbs =
  let once () =
    let t0 = now () in
    List.iter
      (fun tb ->
        ignore
          (Memory.Phys_mem.create
             ~total_pages:(Memory.Phys_mem.total_pages tb.T.mem) ()))
      tbs;
    (now () -. t0) *. 1e3
  in
  median
    (List.init 3 (fun _ ->
         Gc.full_major ();
         once ()))

let mib words = words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* What the groups measured, for {!per_layer}. *)
type inputs = {
  sliced : sliced list;  (** Non-empty. *)
  untraced_s : float;  (** Median run_s, untraced. *)
  traced_s : float;  (** Median run_s, sim-traced. *)
  tags : (string * int) list;  (** Trace events per tag, one rep. *)
  costs : Layers.unit_costs;
  shard : (float * float * float) option;
      (** Sharded workload: windows; run_s over run_s with twice the
          workers (the worker speed-up); run_s over run_s on one shard
          (the split cost). *)
}

let per_layer w i =
  let s = List.hd i.sliced in
  let single =
    match w.Suite.shape with Suite.Single -> true | Suite.Multi _ -> false
  in
  let cfg = w.Suite.base in
  let window_s =
    Sim.Time.to_sec_f
      (if single then cfg.C.duration else Suite.stop cfg)
  in
  let delta name =
    Suite.get s.upto.counters name -. Suite.get s.at.counters name
  in
  let per x y = if y > 0. then x /. y else 0. in
  let ms = s.rep.Suite.ms and tbs = s.rep.Suite.tbs in
  let total f = List.fold_left (fun a m -> a +. f m) 0. ms in
  let mean f = total f /. float_of_int (List.length ms) in
  let profile f = mean (fun m -> f m.R.profile) in
  let med f = median (List.map f i.sliced) in
  let span_ms name r =
    List.fold_left
      (fun a (n, d) -> if String.equal n name then a +. (1e3 *. d) else a)
      0. r.spans
  in
  let measure_ms =
    if single then med (span_ms "slice")
    else med (fun r -> 1e3 *. r.rep.Suite.run_s)
  in
  let slices_us =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (n, d) ->
            if String.equal n "slice" then Some (1e6 *. d) else None)
          r.spans)
      i.sliced
  in
  let events = delta "engine.fired" in
  let gcs f = float_of_int (f s.upto.gc - f s.at.gc) in
  let bridged = delta "netback.rx_delivered" +. delta "netback.tx_forwarded" in
  let received =
    List.fold_left
      (fun a tb ->
        List.fold_left
          (fun a c -> a + Workload.Connection.received c)
          a (tb.T.conns_tx @ tb.T.conns_rx))
      0 tbs
  in
  (* Each layer's operation count in the window; see Layers.unit_costs. *)
  let estimates =
    List.map
      (fun (layer, n) ->
        (layer ^ ".est_host_ms", "ms", List.assoc layer i.costs *. n /. 1e6))
      [
        ("sim", events);
        ("bus", delta "dma.transfers");
        ("memory", delta "nic.tx_frames" +. delta "nic.rx_frames");
        ("nic", delta "mailbox.events");
        ("xen", delta "xen.grant_flips");
        ("guestos", bridged);
        ( "ethernet",
          if cfg.C.materialize then float_of_int received else 0. );
      ]
  in
  let windows, speedup, split =
    Option.value i.shard ~default:(0., 0., 0.)
  in
  [
    ("experiments.build_ms", "ms", med (fun r -> 1e3 *. r.rep.Suite.setup_s));
    ( "experiments.build_mwords",
      "Mwords",
      med (fun r -> r.rep.Suite.setup_words) /. 1e6 );
    ("memory.phys_mem_create_ms", "ms", phys_mem_create_ms tbs);
    ( "memory.materialized_pages",
      "count",
      float_of_int
        (List.fold_left
           (fun a tb -> a + Memory.Phys_mem.materialized_pages tb.T.mem)
           0 tbs) );
    ( "memory.gc_top_heap_mb",
      "MB",
      mib (float_of_int s.upto.gc.Gc.top_heap_words) );
    ( "experiments.warmup_ms",
      "ms",
      med (fun r ->
          span_ms "start" r +. span_ms "warmup" r +. span_ms "reset" r) );
    ("experiments.measure_ms", "ms", measure_ms);
    ("experiments.collect_ms", "ms", med (span_ms "collect"));
    ("sim.events", "count", events);
    ("sim.host_ns_per_event", "ns", per (1e6 *. measure_ms) events);
    ("sim.words_per_event", "words", per (s.upto.words -. s.at.words) events);
    ("sim.minor_gcs", "count", gcs (fun g -> g.Gc.minor_collections));
    ("sim.major_gcs", "count", gcs (fun g -> g.Gc.major_collections));
    ("sim.slice_us_p50", "us", Layers.percentile 50. slices_us);
    ("sim.slice_us_p99", "us", Layers.percentile 99. slices_us);
    ("sim.shard.messages_routed", "count", float_of_int s.rep.Suite.routed);
    ("sim.shard.windows", "count", windows);
    ("sim.shard.us_per_window", "us", per (1e3 *. measure_ms) windows);
    ("sim.shard.worker_speedup", "ratio", speedup);
    ("sim.shard.split_cost", "ratio", split);
    ("host.ctx_switches", "count", delta "cpu.ctx_switches");
    ("host.sim_hyp_pct", "%", profile (fun p -> p.Host.Profile.hyp));
    ( "host.sim_driver_pct",
      "%",
      profile (fun p ->
          p.Host.Profile.driver_kernel +. p.Host.Profile.driver_user) );
    ( "host.sim_guest_pct",
      "%",
      profile (fun p ->
          p.Host.Profile.guest_kernel +. p.Host.Profile.guest_user) );
    ("host.sim_idle_pct", "%", profile (fun p -> p.Host.Profile.idle));
    ("bus.dma_transfers", "count", delta "dma.transfers");
    ("bus.dma_mbytes", "MB", delta "dma.bytes_moved" /. 1e6);
    (* One DMA engine (the shared bus) per host. *)
    ( "bus.dma_busy_pct",
      "%",
      per
        (100. *. delta "dma.busy_ns")
        (float_of_int (List.length tbs) *. 1e9 *. window_s) );
    ("nic.tx_frames", "count", delta "nic.tx_frames");
    ("nic.rx_frames", "count", delta "nic.rx_frames");
    ("nic.rx_drops", "count", total (fun m -> float_of_int m.R.rx_drops));
    ("nic.mailbox_events", "count", delta "mailbox.events");
    ("nic.firmware_events", "count", delta "firmware.events_processed");
    ( "nic.coalesce_fire_ratio",
      "ratio",
      per (delta "coalesce.fired") (delta "coalesce.requests") );
    ("cdna.enqueue_calls", "count", delta "cdna.enqueue_calls");
    ("cdna.faults", "count", delta "cdna.faults");
    ("cdna.virqs", "count", delta "cdna.ctx.virqs");
    ("cdna.ctx_swaps", "count", delta "cdna.ctx_swaps");
    ("xen.hypercalls", "count", delta "xen.hypercalls");
    ("xen.phys_irqs", "count", delta "xen.phys_irqs");
    ("xen.grant_flips", "count", delta "xen.grant_flips");
    (* Run.measurement's rates span the measured window only. *)
    ( "xen.guest_virqs",
      "count",
      Float.round
        (total (fun m ->
             m.R.guest_virq_per_sec *. Sim.Time.to_sec_f cfg.C.duration)) );
    ( "xen.driver_virqs",
      "count",
      Float.round
        (total (fun m ->
             m.R.driver_virq_per_sec *. Sim.Time.to_sec_f cfg.C.duration)) );
    ("guestos.netback_runs", "count", delta "netback.runs");
    ( "guestos.netback_pkts_per_run",
      "count",
      per bridged (delta "netback.runs") );
    ("guestos.netback_rx_dropped", "count", delta "netback.rx_dropped");
    ("workload.goodput_mbps", "Mb/s", Suite.goodput s.rep);
    ("workload.latency_p50_us", "us", mean (fun m -> m.R.latency_p50_us));
    ("workload.latency_p99_us", "us", mean (fun m -> m.R.latency_p99_us));
    ("workload.fairness", "ratio", mean (fun m -> m.R.fairness));
    ( "workload.integrity_failures",
      "count",
      total (fun m -> float_of_int m.R.integrity_failures) );
  ]
  @ List.map
      (fun (t, n) -> ("sim.trace_events." ^ t, "count", float_of_int n))
      i.tags
  @ [
      ( "sim.trace_overhead_pct",
        "%",
        100. *. (per i.traced_s i.untraced_s -. 1.) );
    ]
  @ estimates
  @ [
      ( "experiments.unattributed_ms",
        "ms",
        measure_ms -. List.fold_left (fun a (_, _, v) -> a +. v) 0. estimates
      );
    ]

let write_spans file =
  List.iter
    (fun (pid, name) -> Sim.Trace.Recorder.set_process_name recorder ~pid name)
    groups;
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Sim.Trace.Recorder.to_chrome_string recorder))

let run w ~seed ~seconds ~spans =
  ignore (timed_rep ~group:1 w ~seed);
  let untraced_s = median_run_s ~group:1 ~seconds:(seconds /. 4.) w ~seed in
  let sliced = Tally.repeat ~seconds:0. (fun () -> sliced_rep w ~seed) in
  let traced =
    Tally.repeat ~seconds:0. (fun () -> sim_traced_rep w ~seed)
  in
  let shard =
    match w.Suite.shape with
    | Suite.Single -> None
    | Suite.Multi { hosts; shards; workers } ->
        let layout shards workers =
          median_run_s ~group:4
            ~shape:(Suite.Multi { hosts; shards; workers })
            w ~seed
        in
        let two_workers = layout shards (2 * workers)
        and one_shard = layout 1 workers in
        let cfg = w.Suite.base in
        let windows at =
          Float.ceil
            (Sim.Time.to_sec_f at /. Sim.Time.to_sec_f MH.lookahead)
        in
        Some
          ( windows cfg.C.warmup +. windows cfg.C.duration,
            untraced_s /. two_workers,
            untraced_s /. one_shard )
  in
  let costs = Layers.unit_costs () in
  write_spans spans;
  Printf.printf "sim_digest %s %s seed=%d\n" w.Suite.name
    (Option.value Tally.tally.Tally.digest ~default:"-")
    seed;
  Printf.printf "spans written to %s\n" spans;
  match (sliced, traced) with
  | _ :: _, (_, tags) :: _ ->
      Tally.result
        (per_layer w
           {
             sliced;
             untraced_s;
             traced_s = median (List.map fst traced);
             tags;
             costs;
             shard;
           })
  | _ -> Tally.result []
