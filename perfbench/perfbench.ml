(* The benchmark's command line: one workload per process.

     perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--spans FILE]

   --trace 0 times repetitions (build + run of the workload) for S
   seconds and prints the end-to-end metrics; --trace 1 makes the
   separate traced run and prints the per-layer metrics, writing the
   harness spans as Chrome trace JSON to FILE. Either way the last line
   of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   A repetition fails when it raises or an output check of Suite.check
   fails, or when its sim_digest differs from the first repetition's;
   the exit code is then 1. *)

let median = Layers.median

(* ---------- host speed ---------- *)

(* On a shared 2-vCPU virtual machine, host speed drifts by 20-25%
   between runs a few minutes apart, and the build and the run of a
   repetition drift together. So the timings are reported on a
   nominal host: each repetition's times are scaled by
   [reference_nominal_s] over the mean time of a reference kernel run
   just before and just after it. The kernel is the harness's own
   (stdlib Map inserts and a fold: allocation and pointer chasing like
   the simulator's, and no repository code, so no change under lib/ can
   move it), timed after a full major collection with no testbed alive.
   The raw medians are printed next to the scaled ones. *)
module Int_map = Map.Make (Int)

let reference_nominal_s = 0.08

let reference_s () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let x = ref 0x2545F4914F6CDD1D and m = ref Int_map.empty in
  for _ = 1 to 100_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    m := Int_map.add (!x land 0xFFFFF) !x !m
  done;
  ignore (Sys.opaque_identity (Int_map.fold (fun _ v a -> a lxor v) !m 0));
  Unix.gettimeofday () -. t0

(* ---------- --trace 0: end-to-end metrics ---------- *)

(* What a checked repetition leaves behind; the testbed itself is
   dropped, so it is dead before the next reference kernel runs. *)
type sample = {
  setup_s : float;
  run_s : float;
  alloc_words : float;
  err_pct : float;
  host_s : float;  (** Reference kernel time around the repetition. *)
}

let end_to_end w ~seed ~seconds =
  (* One untimed repetition first, in the fresh process: its peak RSS is
     what one build + run of the workload needs, whatever number of
     repetitions later fits in the time. Its heap growth and lazy set-up
     are paid once, so the timed repetitions do not see them. *)
  ignore (Tally.attempt w ~seed);
  let peak_rss_mb = Tally.vm_hwm_mb () in
  let before = ref (reference_s ()) in
  let samples =
    Tally.repeat ~seconds (fun () ->
        let s =
          Option.map
            (fun (r : Suite.rep) ->
              {
                setup_s = r.Suite.setup_s;
                run_s = r.Suite.run_s;
                alloc_words = r.Suite.alloc_words;
                err_pct = Suite.paper_err_pct w r;
                host_s = 0.;
              })
            (Tally.attempt w ~seed)
        in
        let after = reference_s () in
        let host_s = (!before +. after) /. 2. in
        before := after;
        Option.map (fun s -> { s with host_s }) s)
  in
  (match w.Suite.shape with
  | Suite.Multi _ ->
      ignore (Tally.attempt ~shape:(Tally.one_shard w.Suite.shape) w ~seed)
  | Suite.Single -> ());
  let col f = List.map f samples in
  let scaled f = col (fun s -> f s *. reference_nominal_s /. s.host_s) in
  let setup = scaled (fun s -> s.setup_s) and run = scaled (fun s -> s.run_s) in
  Tally.summarize "setup_s" "s" setup;
  Tally.summarize "run_s" "s" run;
  Printf.printf
    "unscaled medians: setup_s=%.6g s run_s=%.6g s; reference kernel \
     median=%.6g s (nominal %g s)\n"
    (median (col (fun s -> s.setup_s)))
    (median (col (fun s -> s.run_s)))
    (median (col (fun s -> s.host_s)))
    reference_nominal_s;
  Printf.printf "sim_digest %s %s seed=%d\n" w.Suite.name
    (Option.value Tally.tally.Tally.digest ~default:"-")
    seed;
  let err = median (col (fun s -> s.err_pct)) in
  (match w.Suite.anchor with
  | Suite.Published (v, src) | Suite.Derived (v, src) ->
      Printf.printf "paper_err_pct against %.1f Mb/s (%s): %.4f%%\n" v src err);
  Tally.result
    [
      ("setup_s", "s", median setup);
      ("run_s", "s", median run);
      ("peak_rss_mb", "MB", peak_rss_mb);
      ("run_alloc_mwords", "Mwords", median (col (fun s -> s.alloc_words)) /. 1e6);
      ("paper_err_pct", "%", err);
    ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. in
  let trace = ref 0 and spans = ref "perfbench-spans.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced run (1)");
      ("--spans", Arg.Set_string spans, "FILE traced run's span output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match Suite.find !workload with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Suite.name) Suite.all));
      exit 2
  | Some w -> (
      match !trace with
      | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
      | 1 -> Traced.run w ~seed:!seed ~seconds:!seconds ~spans:!spans
      | n ->
          Printf.eprintf "perfbench: --trace must be 0 or 1, not %d\n" n;
          exit 2)
