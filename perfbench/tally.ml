(* Repetitions, their output checks and the result line shared by the
   end-to-end and the traced run. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable digest : string option;  (** First repetition's sim_digest. *)
}

let tally = { attempted = 0; failed = 0; digest = None }

(* Run one repetition and check it; [None] when it failed. A rep with a
   different [shape] (the sharded workload's comparison runs) must still
   reproduce the workload's digest: shards and workers are execution
   policy, never part of the simulated result. *)
let attempt ?hooks ?shape w ~seed =
  tally.attempted <- tally.attempted + 1;
  let fail why =
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: %s rep %d failed: %s\n%!" w.Suite.name
      tally.attempted why;
    None
  in
  match Suite.run ?hooks ?shape w ~seed with
  | exception e -> fail ("raised " ^ Printexc.to_string e)
  | r -> (
      let d = Suite.digest r in
      let digest_ok =
        match tally.digest with
        | None ->
            tally.digest <- Some d;
            true
        | Some d0 -> String.equal d d0
      in
      match Suite.check w r with
      | _ :: _ as bad -> fail ("check failed: " ^ String.concat "; " bad)
      | [] when not digest_ok -> fail ("sim_digest changed to " ^ d)
      | [] -> Some r)

(* Call [rep] until [seconds] have passed and at least [min] calls were
   made; the repetitions that passed, in order. *)
let repeat ?(min = 3) ~seconds rep =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    if n >= min && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else
      match rep () with
      | Some r -> go (r :: acc) (n + 1)
      | None -> go acc (n + 1)
  in
  go [] 0

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> find ()
      in
      find ())

let one_shard = function
  | Suite.Multi { hosts; _ } -> Suite.Multi { hosts; shards = 1; workers = 1 }
  | Suite.Single -> Suite.Single

(* Median, the highest percentile with at least ten samples beyond it,
   and the sample count, printed ahead of the JSON result. *)
let summarize name unit xs =
  let n = List.length xs in
  let tail =
    if n >= 20 then
      let p = Float.floor (100. *. (1. -. (10. /. float_of_int n))) in
      Printf.sprintf "p%.0f=%.6g" p (Layers.percentile p xs)
    else
      Printf.sprintf "max=%.6g (n<20: no percentile has 10 samples beyond it)"
        (List.fold_left Float.max neg_infinity xs)
  in
  Printf.printf "%-18s median=%.6g %s %s n=%d\n" name (Layers.median xs) unit
    tail n

(* The result line. Values print with all 17 significant digits; a
   non-finite value (no metric should ever produce one) fails the run. *)
let result metrics =
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = tally.failed = 0 && tally.attempted > 0 && finite in
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
      unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", " (List.map metric metrics));
  exit (if correct then 0 else 1)
