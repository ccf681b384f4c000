(* Shared definition of the golden determinism runs: the one config table
   and the artifact pipeline (trace recorder -> Chrome JSON, metrics
   registry -> JSON) that both the fixture generator (gen_golden.ml) and
   the golden test (test_experiments.ml) use. Keeping it in one place
   guarantees the test compares like with like. *)

(* A golden run: its config, the suffix of its fixture file names, and
   whether the trace is locked as well as the metrics. *)
type run = { name : string; cfg : Experiments.Config.t; trace : bool }

let short =
  {
    Experiments.Config.default with
    Experiments.Config.warmup = Sim.Time.ms 1;
    duration = Sim.Time.ms 2;
  }

let cdna_tx seed =
  {
    name = Printf.sprintf "seed%d" seed;
    cfg =
      {
        short with
        Experiments.Config.system = Experiments.Config.Cdna_sys;
        nic = Experiments.Config.Ricenic;
        pattern = Workload.Pattern.Tx;
        guests = 2;
        nics = 2;
        seed;
      };
    trace = true;
  }

let runs =
  [
    cdna_tx 1234;
    cdna_tx 77;
    (* Native_driver with staged payloads, both directions. *)
    {
      name = "native_bidir";
      cfg =
        {
          short with
          Experiments.Config.system = Experiments.Config.Native;
          nic = Experiments.Config.Intel;
          pattern = Workload.Pattern.Bidirectional;
          materialize = true;
          seed = 1234;
        };
      trace = false;
    };
    (* Netback -> netfront with staged payloads and page flips, three
       guests sharing the driver domain. *)
    {
      name = "xen_rx";
      cfg =
        {
          short with
          Experiments.Config.system = Experiments.Config.Xen_sw;
          nic = Experiments.Config.Intel;
          pattern = Workload.Pattern.Rx;
          guests = 3;
          materialize = true;
          seed = 1234;
        };
      trace = false;
    };
  ]

(* Mirrors `cdna_sim run --trace-out --metrics-out`: record every trace
   event, run, then render the artifacts exactly as the CLI does. Returns
   [(file name, contents)] for each artifact the run locks. *)
let artifacts run =
  let r = Sim.Trace.Recorder.create () in
  if run.trace then Sim.Trace.set_sink (Some (Sim.Trace.Recorder.sink r));
  let _, tb = Experiments.Run.run_tb run.cfg in
  Sim.Trace.set_sink None;
  let metrics =
    ( Printf.sprintf "metrics_%s.json" run.name,
      Sim.Metrics.to_string tb.Experiments.Testbed.metrics )
  in
  if not run.trace then [ metrics ]
  else begin
    Sim.Trace.Recorder.set_process_name r ~pid:0 "hypervisor";
    List.iter
      (fun d ->
        Sim.Trace.Recorder.set_process_name r
          ~pid:(Xen.Domain.id d + 1)
          (Xen.Domain.name d))
      (Xen.Hypervisor.domains tb.Experiments.Testbed.xen);
    [
      ( Printf.sprintf "trace_%s.json" run.name,
        Sim.Trace.Recorder.to_chrome_string r );
      metrics;
    ]
  end
