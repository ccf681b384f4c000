(* Suite for the shared analysis core: loader failures are typed and
   name the file, the summary fixpoint fails loudly instead of stopping
   at its cap, and recursive call shapes (self-recursion, a three-cycle)
   converge to one report with a chain that walks the recursion once.
   Runs against the .cmt files compiled from rec_fixtures/ (cwd is
   _build/default/lint under dune). *)

let rec_root = "rec_fixtures"
let core = lazy (Program.load rec_root)
let flow = lazy (Cdna_flow.analyze (Lazy.force core))
let proto = lazy (Cdna_proto.analyze (Lazy.force core))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let temp_dir () =
  let d = Filename.temp_file "cdna_cmt" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let load_error_file f =
  match f () with
  | _ -> Alcotest.fail "expected Program.Load_error"
  | exception Program.Load_error { file; _ } -> file

(* A .cmt cut short mid-file must raise the typed error naming it, not
   be skipped and not escape as a compiler-libs exception. *)
let test_truncated_cmt () =
  let dir = temp_dir () in
  let good = read_file (Filename.concat rec_root ".rec_fixtures.objs/byte/flow_self.cmt") in
  let bad = Filename.concat dir "broken.cmt" in
  Out_channel.with_open_bin bad (fun oc ->
      Out_channel.output_string oc
        (String.sub good 0 (String.length good / 2)));
  Alcotest.(check string)
    "error names the truncated file" bad
    (load_error_file (fun () -> Program.load dir));
  Alcotest.(check bool)
    "main.exe maps it to a one-line failure" true
    (match Program.load dir with
    | _ -> false
    | exception e -> Program.failure_message e <> None);
  Sys.remove bad;
  Sys.rmdir dir

let test_missing_root () =
  Alcotest.(check string)
    "error names the missing root" "no/such/dir"
    (load_error_file (fun () -> Program.load "no/such/dir"))

(* A join that never stabilises: the solver must give up at the named
   cap with the round count, and main.exe must treat that as failure. *)
module Diverging = struct
  type t = int

  let bottom = 0
  let join a b = max a b + 1
  let equal = Int.equal
end

module Counting = struct
  type t = int

  let bottom = 0
  let join = max
  let equal = Int.equal
end

let test_not_converged () =
  let module S = Program.Fixpoint.Make (Diverging) in
  match S.solve [ "a"; "b" ] (fun read id -> read id) with
  | _ -> Alcotest.fail "expected Not_converged"
  | exception (Program.Not_converged { rounds } as e) ->
      Alcotest.(check int) "round count is the cap" Program.max_rounds rounds;
      Alcotest.(check bool)
        "main.exe maps it to a one-line failure" true
        (Program.failure_message e <> None)

(* "a" depends on "b" (later in sorted order) and "c" on "a": "b"'s
   change re-queues "a" for the next round, whose change reaches "c" in
   that same round; nothing is re-evaluated once nothing it read moved. *)
let test_converges () =
  let module S = Program.Fixpoint.Make (Counting) in
  let step read = function
    | "a" -> read "b" + 1
    | "b" -> 5
    | _ -> read "a" + 1
  in
  let value, rounds = S.solve [ "c"; "b"; "a" ] step in
  Alcotest.(check (list int))
    "fixpoint values" [ 6; 5; 7 ]
    (List.map value [ "a"; "b"; "c" ]);
  Alcotest.(check int) "rounds" 2 rounds

let viols_in vs base =
  List.filter
    (fun (v : Program.violation) -> Filename.basename v.file = base)
    vs

let no_repeated_hop (v : Program.violation) =
  let hops =
    List.map
      (fun (h : Program.hop) -> (h.hop_what, h.hop_file, h.hop_line))
      v.chain
  in
  List.length (List.sort_uniq compare hops) = List.length hops

let check_one ~vs ~base ~rule ~line ~hops =
  match viols_in vs base with
  | [ v ] ->
      Alcotest.(check string) (base ^ " rule") rule v.rule;
      Alcotest.(check int) (base ^ " line") line v.line;
      Alcotest.(check int) (base ^ " chain length") hops (List.length v.chain);
      Alcotest.(check bool) (base ^ " no repeated hop") true (no_repeated_hop v)
  | vs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one %s violation, got %d" base
           (List.length vs))

let test_flow_recursion () =
  let r = Lazy.force flow in
  Alcotest.(check bool) "converges below the cap" true
    (r.rounds < Program.max_rounds);
  check_one ~vs:r.violations ~base:"flow_self.ml" ~rule:"T1-guest-taint"
    ~line:13 ~hops:3;
  check_one ~vs:r.violations ~base:"flow_cycle.ml" ~rule:"T1-guest-taint"
    ~line:16 ~hops:4

let test_proto_recursion () =
  let r = Lazy.force proto in
  Alcotest.(check bool) "converges below the cap" true
    (r.rounds < Program.max_rounds);
  check_one ~vs:r.violations ~base:"proto_self.ml" ~rule:"PR2-double-release"
    ~line:12 ~hops:5;
  check_one ~vs:r.violations ~base:"proto_cycle.ml" ~rule:"PR2-double-release"
    ~line:18 ~hops:4

let () =
  Alcotest.run "program"
    [
      ( "load",
        [
          Alcotest.test_case "truncated .cmt is a typed error" `Quick
            test_truncated_cmt;
          Alcotest.test_case "missing root is a typed error" `Quick
            test_missing_root;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "diverging join raises Not_converged" `Quick
            test_not_converged;
          Alcotest.test_case "worklist converges" `Quick test_converges;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "flow: self-recursion and 3-cycle" `Quick
            test_flow_recursion;
          Alcotest.test_case "proto: self-recursion and 3-cycle" `Quick
            test_proto_recursion;
        ] );
    ]
