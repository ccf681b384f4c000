(* cdna_lint / cdna_flow / cdna_dom / cdna_proto CLI.

   Usage:
     main.exe --cmt CMT_DIR [--json FILE] [--stats FILE] [--quiet]
              [--format text|github] [--only RULE] [--gate BASELINE]

   Loads the compiled [.cmt] tree rooted at CMT_DIR once
   ([Program.load]) and runs the four passes over it: the
   per-expression rules (determinism, hot-path allocation, protection
   boundaries), the interprocedural flow verifier, the domain-safety /
   race detector and the resource-protocol (typestate) verifier. One
   invocation runs all passes and exits with a single combined code.

   Exit codes: 0 clean, 1 violations found, 2 usage or I/O error
   (including a missing [--cmt]), an unreadable .cmt, or a summary
   fixpoint that did not converge (a run that cannot be trusted never
   reports).

   [--only RULE] restricts the rendered report and the exit code to
   violations of RULE — either a full rule name ("PR1-leak-on-path") or
   its prefix up to the first dash ("PR1", "T1"). Stats artifacts stay
   complete so baselines never depend on the filter.

   [--format github] emits `::error file=...,line=...::msg` annotations
   for CI logs instead of the human-readable report.

   [--json] writes every pass's unsuppressed violations as one list and
   [--stats] the combined run summary (rules hit, files scanned,
   suppression counts, per-pass reports) as deterministic Sim.Json
   documents so CI can archive them. The stats document also carries a
   [timing] block (per-pass wall time in milliseconds, input count, and
   fixpoint rounds for flow and proto); it is diagnostic only and is
   never consulted by the drift gate.

   [--gate BASELINE] is the suppression-drift gate: after computing the
   current stats it fails (exit 1) if the unsuppressed-violation count or
   any suppression count grew versus the committed BASELINE file. *)

let usage =
  "usage: cdna_lint --cmt CMT_DIR [--json FILE] [--stats FILE] [--quiet] \
   [--format text|github] [--only RULE] [--gate BASELINE]"

let usage_error msg =
  prerr_endline ("cdna_lint: " ^ msg);
  prerr_endline usage;
  exit 2

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let github_escape s =
  (* The workflow-command grammar reserves %, CR and LF in messages. *)
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Suppression-drift gate                                              *)
(* ------------------------------------------------------------------ *)

let rec json_at j = function
  | [] -> Some j
  | k :: rest -> (
      match j with
      | Sim.Json.Obj fields ->
          Option.bind (List.assoc_opt k fields) (fun j' -> json_at j' rest)
      | _ -> None)

(* A tracked count: an integer field, or the total of an object of
   per-annotation integers. *)
let json_count j path =
  match json_at j path with
  | Some (Sim.Json.Int n) -> n
  | Some (Sim.Json.Obj fields) ->
      List.fold_left
        (fun acc (_, v) -> match v with Sim.Json.Int n -> acc + n | _ -> acc)
        0 fields
  | _ -> 0

(* Fails when a tracked count in [current] exceeds the committed
   [baseline]: new unsuppressed violations or new suppression
   annotations both require a deliberate baseline refresh. *)
let run_gate ~baseline_path current =
  let baseline =
    match Sim.Json.parse (read_file baseline_path) with
    | Ok j -> j
    | Error _ | (exception Sys_error _) ->
        prerr_endline
          ("cdna_lint: cannot read gate baseline " ^ baseline_path);
        exit 2
  in
  let checks =
    [
      ("violations", [ "violations" ]);
      ("suppressions (total)", [ "suppressions" ]);
      ("flow violations", [ "flow"; "violations" ]);
      ("flow suppressions", [ "flow"; "suppressions" ]);
      ("dom violations", [ "dom"; "violations" ]);
      ("dom suppressions", [ "dom"; "suppressions" ]);
      ("dom domain_shared annotations", [ "dom"; "domain_shared" ]);
      ("dom domain_local annotations", [ "dom"; "domain_local" ]);
      ("proto violations", [ "proto"; "violations" ]);
      ("proto suppressions", [ "proto"; "suppressions" ]);
      ("proto acquire annotations", [ "proto"; "acquire_annots" ]);
      ("proto release annotations", [ "proto"; "release_annots" ]);
    ]
  in
  let drifted =
    List.filter_map
      (fun (what, path) ->
        let base = json_count baseline path and cur = json_count current path in
        if cur > base then Some (what, base, cur) else None)
      checks
  in
  List.iter
    (fun (what, base, cur) ->
      Printf.eprintf
        "cdna_lint: gate: %s grew from %d to %d (refresh %s deliberately \
         if intended)\n"
        what base cur baseline_path)
    drifted;
  drifted = []

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let json_out = ref None in
  let stats_out = ref None in
  let quiet = ref false in
  let format = ref `Text in
  let cmt_root = ref None in
  let only = ref None in
  let gate = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: f :: rest ->
        json_out := Some f;
        parse_args rest
    | "--stats" :: f :: rest ->
        stats_out := Some f;
        parse_args rest
    | "--cmt" :: d :: rest ->
        cmt_root := Some d;
        parse_args rest
    | "--only" :: r :: rest ->
        only := Some r;
        parse_args rest
    | "--gate" :: f :: rest ->
        gate := Some f;
        parse_args rest
    | "--format" :: f :: rest ->
        (match f with
        | "text" -> format := `Text
        | "github" -> format := `Github
        | other -> usage_error ("unknown format " ^ other));
        parse_args rest
    | "--quiet" :: rest ->
        quiet := true;
        parse_args rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | [ ("--json" | "--stats" | "--cmt" | "--only" | "--gate" | "--format") ]
      ->
        usage_error "missing option argument"
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        usage_error ("unknown option " ^ arg)
    | arg :: _ -> usage_error ("unexpected argument " ^ arg)
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let cmt_root =
    match !cmt_root with Some d -> d | None -> usage_error "--cmt is required"
  in
  (* Per-pass wall time: diagnostic only (stats [timing] block and the
     summary line), deliberately outside the drift gate. *)
  let timings = ref [] in
  let timed name facts f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let ms = int_of_float (ceil ((Unix.gettimeofday () -. t0) *. 1000.)) in
    timings := !timings @ [ (name, ("ms", ms) :: facts r) ];
    r
  in
  let lint, flow, dom, proto =
    try
      let prog =
        timed "load"
          (fun (p : Program.t) -> [ ("inputs", p.files) ])
          (fun () -> Program.load cmt_root)
      in
      let inputs _ = [ ("inputs", prog.files) ] in
      let lint = timed "lint" inputs (fun () -> Cdna_lint.analyze prog) in
      let flow =
        timed "flow"
          (fun (r : Cdna_flow.report) -> inputs () @ [ ("rounds", r.rounds) ])
          (fun () -> Cdna_flow.analyze prog)
      in
      let dom = timed "dom" inputs (fun () -> Cdna_dom.analyze prog) in
      let proto =
        timed "proto"
          (fun (r : Cdna_proto.report) -> inputs () @ [ ("rounds", r.rounds) ])
          (fun () -> Cdna_proto.analyze prog)
      in
      (lint, flow, dom, proto)
    with e when Program.failure_message e <> None ->
      prerr_endline ("cdna_lint: " ^ Option.get (Program.failure_message e));
      exit 2
  in
  let violations =
    lint.violations @ flow.violations @ dom.violations @ proto.violations
  in
  (* [--only]: the filtered view drives rendering and the exit code; the
     stats artifact below is always computed from the full reports. *)
  let shown =
    List.filter
      (fun (v : Program.violation) -> Program.rule_matches ~only:!only v.rule)
      violations
  in
  List.iter
    (fun (v : Program.violation) ->
      match !format with
      | `Text -> print_endline (Program.violation_to_string v)
      | `Github ->
          Printf.printf "::error file=%s,line=%d%s::[%s] %s\n" v.file v.line
            (match v.col with Some c -> Printf.sprintf ",col=%d" c | None -> "")
            v.rule
            (github_escape
               (String.concat "\n" (v.msg :: Program.chain_lines v))))
    shown;
  (* Artifacts. *)
  let stats_json =
    let blocks =
      [
        ("flow", Cdna_flow.report_to_json flow);
        ("dom", Cdna_dom.report_to_json dom);
        ("proto", Cdna_proto.report_to_json proto);
        ( "timing",
          Sim.Json.Obj
            (List.map
               (fun (name, facts) ->
                 ( name,
                   Sim.Json.Obj
                     (List.map (fun (k, n) -> (k, Sim.Json.Int n)) facts) ))
               !timings) );
      ]
    in
    match Cdna_lint.report_to_json lint with
    | Sim.Json.Obj fields -> Sim.Json.Obj (fields @ blocks)
    | j -> j
  in
  (* Gate before writing artifacts: [--stats] may legitimately point at
     the same file as [--gate], refreshing the baseline only after the
     comparison against the committed copy has been made. *)
  let gate_ok =
    match !gate with
    | Some baseline_path -> run_gate ~baseline_path stats_json
    | None -> true
  in
  (match !json_out with
  | Some f ->
      write_file f
        (Sim.Json.to_string
           (Sim.Json.List (List.map Program.violation_to_json violations))
        ^ "\n")
  | None -> ());
  (match !stats_out with
  | Some f -> write_file f (Sim.Json.to_string stats_json ^ "\n")
  | None -> ());
  if not !quiet then begin
    Printf.printf
      "cdna_lint: %d cmt file(s), %d hot function(s), %d violation(s), %d \
       suppression annotation(s)\n"
      lint.cmt_files lint.hot_functions
      (List.length lint.violations)
      (List.fold_left (fun acc (_, n) -> acc + n) 0 lint.suppressions);
    Printf.printf
      "cdna_flow: %d cmt file(s), %d function(s), %d violation(s), %d \
       suppressed, %d sanitizer(s)\n"
      flow.cmt_files flow.functions
      (List.length flow.violations)
      (List.length flow.suppressed)
      flow.sanitizer_fns;
    Printf.printf
      "cdna_dom: %d cmt file(s), %d state item(s) [%s], %d violation(s), %d \
       suppressed, %d domain-local assertion(s)\n"
      dom.cmt_files dom.state_items
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) dom.classes))
      (List.length dom.violations)
      (List.length dom.suppressed)
      dom.domain_local;
    Printf.printf
      "cdna_proto: %d cmt file(s), %d function(s), %d protocol(s), %d \
       violation(s), %d suppressed\n"
      proto.cmt_files proto.functions proto.protocols
      (List.length proto.violations)
      (List.length proto.suppressed);
    Printf.printf "cdna timing: %s\n"
      (String.concat ", "
         (List.map
            (fun (name, facts) ->
              let fact k = List.assoc k facts in
              Printf.sprintf "%s %dms/%d%s" name (fact "ms") (fact "inputs")
                (match List.assoc_opt "rounds" facts with
                | Some n -> Printf.sprintf " (%d rounds)" n
                | None -> ""))
            !timings))
  end;
  if shown <> [] || not gate_ok then exit 1
