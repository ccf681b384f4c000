(* Determinism of the combined four-pass stats artifact and of the
   rendered violation output: LINT_stats.json is diffed by the
   suppression-drift gate and archived by CI, so two runs over the same
   corpus must agree byte-for-byte, and the result must not depend on
   the order the fixture directories happen to be listed in.

   This assembles the combined document exactly as [main.exe --stats]
   does — the per-expression block plus one block per other pass —
   except for the [timing] block, which is wall-clock by definition and
   therefore excluded from both the gate and this comparison. *)

(* The combined stats document (sans timing) over all four fixture
   corpora, with every pass's rendered violations appended. *)
let combined ~order =
  let load root =
    Program.collect_cmts [] root
    |> List.sort String.compare |> order |> Program.load_paths
  in
  let lint = Cdna_lint.analyze (load "fixtures") in
  let flow = Cdna_flow.analyze (Program.load "flow_fixtures") in
  let dom = Cdna_dom.analyze (Program.load "dom_fixtures") in
  let proto = Cdna_proto.analyze (load "proto_fixtures") in
  let json =
    match Cdna_lint.report_to_json lint with
    | Sim.Json.Obj fields ->
        Sim.Json.Obj
          (fields
          @ [
              ("flow", Cdna_flow.report_to_json flow);
              ("dom", Cdna_dom.report_to_json dom);
              ("proto", Cdna_proto.report_to_json proto);
            ])
    | j -> j
  in
  let rendered =
    List.map Program.violation_to_string
      (lint.violations @ flow.violations @ dom.violations @ proto.violations)
  in
  (Sim.Json.to_string json, String.concat "\n" rendered)

let test_two_runs () =
  let json_a, text_a = combined ~order:(fun p -> p) in
  let json_b, text_b = combined ~order:(fun p -> p) in
  Alcotest.(check string) "combined stats JSON byte-identical" json_a json_b;
  Alcotest.(check string) "rendered violations byte-identical" text_a text_b;
  Alcotest.(check bool) "corpus is non-trivial" true
    (String.length text_a > 0)

(* Feeding the .cmt corpus in reverse listing order must not change a
   byte: discovery order is an accident of the filesystem. *)
let test_listing_order () =
  let json_a, text_a = combined ~order:(fun p -> p) in
  let json_b, text_b = combined ~order:List.rev in
  Alcotest.(check string) "stats JSON stable under listing order" json_a
    json_b;
  Alcotest.(check string) "rendering stable under listing order" text_a text_b

let () =
  Alcotest.run "determinism"
    [
      ( "four-pass",
        [
          Alcotest.test_case "byte-identical across runs" `Quick test_two_runs;
          Alcotest.test_case "stable under listing order" `Quick
            test_listing_order;
        ] );
    ]
