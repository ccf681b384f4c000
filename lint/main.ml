(* cdna_lint / cdna_flow / cdna_dom / cdna_proto CLI.

   Usage:
     main.exe [--json FILE] [--stats FILE] [--quiet] [--format text|github]
              [--cmt CMT_DIR] [--only RULE] [--gate BASELINE] [DIR|FILE]...

   Walks every [.ml] under the given roots (default: [lib]) through the
   parsetree checker. With [--cmt] it also loads the compiled [.cmt]
   tree rooted at CMT_DIR once ([Program.load]) and runs the three
   typedtree passes over it: the interprocedural flow verifier, the
   domain-safety / race detector and the resource-protocol (typestate)
   verifier. One invocation runs all passes and exits with a single
   combined code.

   Exit codes: 0 clean, 1 violations found, 2 usage or I/O error, an
   unreadable .cmt, or a summary fixpoint that did not converge (a run
   that cannot be trusted never reports).

   [--only RULE] restricts the rendered report and the exit code to
   violations of RULE — either a full rule name ("PR1-leak-on-path") or
   its prefix up to the first dash ("PR1", "T1"). Stats artifacts stay
   complete so baselines never depend on the filter.

   [--format github] emits `::error file=...,line=...::msg` annotations
   for CI logs instead of the human-readable report.

   [--json] writes the parsetree diagnostics and [--stats] the combined
   run summary (rules hit, files scanned, suppression counts, per-pass
   reports) as deterministic Sim.Json documents so CI can archive them.
   The stats document also carries a [timing] block (per-pass wall time
   in milliseconds, input count, and fixpoint rounds for flow and
   proto); it is diagnostic only and is never consulted by the drift
   gate.

   [--gate BASELINE] is the suppression-drift gate: after computing the
   current stats it fails (exit 1) if the unsuppressed-violation count or
   any suppression count grew versus the committed BASELINE file. *)

let usage =
  "usage: cdna_lint [--json FILE] [--stats FILE] [--quiet] [--format \
   text|github] [--cmt CMT_DIR] [--only RULE] [--gate BASELINE] [PATH]..."

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
  let roots = ref [] in
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
    | path :: rest ->
        roots := path :: !roots;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let roots = if !roots = [] then [ "lib" ] else List.rev !roots in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then
        usage_error ("no such path: " ^ r))
    roots;
  let files =
    List.fold_left (Program.collect_files ".ml") [] roots
    |> List.sort_uniq String.compare
    |> List.map (fun p -> (p, read_file p))
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
  let diags, stats =
    timed "lint"
      (fun _ -> [ ("inputs", List.length files) ])
      (fun () -> Cdna_lint.run files)
  in
  let reports =
    Option.map
      (fun d ->
        try
          let prog =
            timed "load"
              (fun (p : Program.t) -> [ ("inputs", p.files) ])
              (fun () -> Program.load d)
          in
          let inputs = [ ("inputs", prog.files) ] in
          let flow =
            timed "flow"
              (fun (r : Cdna_flow.report) -> inputs @ [ ("rounds", r.rounds) ])
              (fun () -> Cdna_flow.analyze prog)
          in
          let dom =
            timed "dom" (fun _ -> inputs) (fun () -> Cdna_dom.analyze prog)
          in
          let proto =
            timed "proto"
              (fun (r : Cdna_proto.report) -> inputs @ [ ("rounds", r.rounds) ])
              (fun () -> Cdna_proto.analyze prog)
          in
          (flow, dom, proto)
        with e when Program.failure_message e <> None ->
          prerr_endline
            ("cdna_lint: " ^ Option.get (Program.failure_message e));
          exit 2)
      !cmt_root
  in
  (* [--only]: the filtered views drive rendering and the exit code; the
     stats artifact below is always computed from the full reports. *)
  let only = !only in
  let shown_diags =
    List.filter (fun d -> Program.rule_matches ~only d.Cdna_lint.rule) diags
  in
  let shown_cmt =
    match reports with
    | Some
        ( (flow : Cdna_flow.report),
          (dom : Cdna_dom.report),
          (proto : Cdna_proto.report) ) ->
        List.filter
          (fun (v : Program.violation) -> Program.rule_matches ~only v.rule)
          (flow.violations @ dom.violations @ proto.violations)
    | None -> []
  in
  (* Reports. *)
  (match !format with
  | `Text ->
      List.iter
        (fun d -> print_endline (Cdna_lint.diag_to_string d))
        shown_diags;
      List.iter
        (fun v -> print_endline (Program.violation_to_string v))
        shown_cmt
  | `Github ->
      List.iter
        (fun d ->
          Printf.printf "::error file=%s,line=%d,col=%d::[%s] %s\n"
            d.Cdna_lint.file d.Cdna_lint.line d.Cdna_lint.col
            d.Cdna_lint.rule
            (github_escape d.Cdna_lint.msg))
        shown_diags;
      List.iter
        (fun (v : Program.violation) ->
          Printf.printf "::error file=%s,line=%d::[%s] %s\n" v.file v.line
            v.rule
            (github_escape
               (v.msg ^ "\n" ^ String.concat "\n" (Program.chain_lines v))))
        shown_cmt);
  (* Artifacts. *)
  let stats_json =
    let blocks =
      (match reports with
      | Some (flow, dom, proto) ->
          [
            ("flow", Cdna_flow.report_to_json flow);
            ("dom", Cdna_dom.report_to_json dom);
            ("proto", Cdna_proto.report_to_json proto);
          ]
      | None -> [])
      @ [
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
    match Cdna_lint.stats_to_json stats with
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
  | Some f -> write_file f (Sim.Json.to_string (Cdna_lint.diags_to_json diags) ^ "\n")
  | None -> ());
  (match !stats_out with
  | Some f -> write_file f (Sim.Json.to_string stats_json ^ "\n")
  | None -> ());
  if not !quiet then begin
    Printf.printf
      "cdna_lint: %d file(s), %d hot function(s), %d violation(s), %d \
       suppression annotation(s)\n"
      stats.Cdna_lint.files_scanned stats.Cdna_lint.hot_functions
      stats.Cdna_lint.violations
      (List.fold_left
         (fun acc (_, n) -> acc + n)
         0 stats.Cdna_lint.suppression_counts);
    Option.iter
      (fun ( (f : Cdna_flow.report),
             (d : Cdna_dom.report),
             (p : Cdna_proto.report) ) ->
        Printf.printf
          "cdna_flow: %d cmt file(s), %d function(s), %d violation(s), %d \
           suppressed, %d sanitizer(s)\n"
          f.cmt_files f.functions (List.length f.violations)
          (List.length f.suppressed) f.sanitizer_fns;
        Printf.printf
          "cdna_dom: %d cmt file(s), %d state item(s) [%s], %d violation(s), \
           %d suppressed, %d domain-local assertion(s)\n"
          d.cmt_files d.state_items
          (String.concat ", "
             (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) d.classes))
          (List.length d.violations) (List.length d.suppressed) d.domain_local;
        Printf.printf
          "cdna_proto: %d cmt file(s), %d function(s), %d protocol(s), %d \
           violation(s), %d suppressed\n"
          p.cmt_files p.functions p.protocols (List.length p.violations)
          (List.length p.suppressed))
      reports;
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
  if shown_diags <> [] || shown_cmt <> [] || not gate_ok then exit 1
