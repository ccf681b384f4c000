(* Fixture suite for cdna_lint: each known-bad snippet compiled under
   fixtures/ must produce exactly the expected multiset of rule hits in
   its own file (the protection rules key off [@@@cdna.layer] scopes),
   annotated variants none, and the installed lib/ corpus none. Runs
   against the .cmt files (cwd is _build/default/lint under dune). *)

let report = lazy (Cdna_lint.analyze (Program.load "fixtures"))

let in_file base (vs : Program.violation list) =
  List.filter
    (fun (v : Program.violation) -> Filename.basename v.file = base)
    vs

let viols_in fixture = in_file fixture (Lazy.force report).violations

let rules_of vs = List.map (fun (v : Program.violation) -> v.rule) vs

let lines_of vs = List.map (fun (v : Program.violation) -> v.line) vs

let check_rules name fixture expected =
  Alcotest.(check (list string))
    name (List.sort String.compare expected)
    (List.sort String.compare (rules_of (viols_in fixture)))

(* ---------- determinism family ---------- *)

let test_iter_unsorted () =
  check_rules "iter flagged" "det_iter_unsorted.ml" [ "D1-unordered-iter" ]

let test_fold_unsorted () =
  (* Only the unsorted fold is flagged; both sort-wrapped forms pass. *)
  check_rules "fold flagged once" "det_fold_unsorted.ml" [ "D1-unordered-iter" ]

let test_alias_hashtbl () =
  (* Aliasing must not launder hash-order iteration: top-level alias,
     let-module alias, and explicit Stdlib qualification all count. *)
  check_rules "aliased Hashtbl flagged" "det_alias_hashtbl.ml"
    [ "D1-unordered-iter"; "D1-unordered-iter"; "D1-unordered-iter" ]

let test_poly_compare () =
  check_rules "poly compare" "det_poly_compare.ml"
    [ "D2-poly-compare"; "D2-poly-compare"; "D2-poly-compare" ]

let test_nondet () =
  check_rules "nondet primitives" "det_nondet.ml"
    [ "D3-nondet-primitive"; "D3-nondet-primitive"; "D3-nondet-primitive" ]

(* ---------- zero-alloc family ---------- *)

let test_alloc_construct () =
  check_rules "construction in hot body" "alloc_construct.ml"
    [ "A1-alloc-construct"; "A1-alloc-construct"; "A1-alloc-construct" ]

let test_alloc_closure () =
  check_rules "closure in hot body" "alloc_closure.ml" [ "A2-alloc-closure" ]

(* The hot body calls a non-hot helper: the site is the helper's
   non-allowlisted call, reported with the entry -> helper chain. *)
let test_alloc_call () =
  check_rules "non-hot call reached from hot body" "alloc_call.ml"
    [ "A3-alloc-call" ];
  match viols_in "alloc_call.ml" with
  | [ v ] ->
      Alcotest.(check int) "site is the helper's call" 2 v.line;
      Alcotest.(check (list string))
        "entry -> helper chain"
        [
          "1. hot entry Alloc_call.fast at lint/fixtures/alloc_call.ml:3";
          "2. Alloc_call.fast calls Alloc_call.slow at \
           lint/fixtures/alloc_call.ml:3";
        ]
        (Program.chain_lines v)
  | _ -> Alcotest.fail "expected exactly one alloc_call violation"

let test_alloc_partial () =
  check_rules "partial application in hot body" "alloc_partial.ml"
    [ "A4-partial-app" ]

(* A non-hot allocating function passed as a value to a hot combinator
   is reachable, and flagged inside it. *)
let test_alloc_value () =
  check_rules "allocating function passed as a value" "alloc_value.ml"
    [ "A1-alloc-construct" ];
  Alcotest.(check (list int)) "site in the passed function" [ 6 ]
    (lines_of (viols_in "alloc_value.ml"))

(* ---------- protection family ---------- *)

(* One file, two scopes: the calls at top level are nic-layer code, the
   same calls in the [Xen] submodule are hypervisor code. *)
let test_prot_ownership () =
  check_rules "ownership mutation outside hypervisor" "prot_ownership.ml"
    [
      "P1-ownership-boundary"; "P1-ownership-boundary"; "P1-ownership-boundary";
    ];
  Alcotest.(check (list int)) "nic-scope lines" [ 4; 5; 7 ]
    (lines_of (viols_in "prot_ownership.ml"))

let test_prot_ownership_allowed_in_xen () =
  Alcotest.(check (list string))
    "no P1 in the xen-scope submodule" []
    (rules_of
       (List.filter
          (fun (v : Program.violation) -> v.line > 9)
          (viols_in "prot_ownership.ml")))

let test_prot_guest_mem () =
  check_rules "direct guest memory access" "prot_guest_mem.ml"
    [
      "P2-guest-memory-boundary"; "P2-guest-memory-boundary";
      "P2-guest-memory-boundary"; "P2-guest-memory-boundary";
      "P2-guest-memory-boundary";
    ];
  (* The driver core's staging helper, and the in-place compare and the
     string store, are byte access like Phys_mem's read and write. *)
  let p2 fn =
    fn
    ^ " bypasses DMA protection: lib/nic and lib/guestos must reach guest \
       memory through Bus.Dma_engine (or justify with \
       [@cdna.protection_ok])"
  in
  Alcotest.(check (list (pair int string)))
    "staging helper and string access flagged"
    [
      (6, p2 "Netdev.write_payload");
      (7, p2 "Phys_mem.equal_string");
      (8, p2 "Phys_mem.write_string");
    ]
    (List.filter_map
       (fun (v : Program.violation) ->
         if v.line >= 6 then Some (v.line, v.msg) else None)
       (viols_in "prot_guest_mem.ml"));
  (* The same code in the experiments-scope submodule is fine. *)
  Alcotest.(check (list string))
    "no P2 outside nic/guestos" []
    (rules_of
       (List.filter
          (fun (v : Program.violation) -> v.line > 9)
          (viols_in "prot_guest_mem.ml")))

let test_prot_privileged () =
  let r = Lazy.force report in
  Alcotest.(check (list string))
    "privileged module clean" [] (rules_of (viols_in "prot_privileged.ml"));
  Alcotest.(check int) "privilege counted as suppression" 1
    (Option.value (List.assoc_opt "cdna.privileged" r.suppressions) ~default:0)

(* ---------- suppression machinery ---------- *)

let test_suppressed () =
  let r = Lazy.force report in
  Alcotest.(check (list string))
    "all suppressed" [] (rules_of (viols_in "suppressed.ml"));
  Alcotest.(check (list string))
    "every rule family hit and masked"
    [
      "A1-alloc-construct"; "D1-unordered-iter"; "D2-poly-compare";
      "D3-nondet-primitive"; "P1-ownership-boundary";
    ]
    (List.sort String.compare (rules_of (in_file "suppressed.ml" r.suppressed)))

let test_missing_reason () =
  check_rules "reasonless suppression flagged" "missing_reason.ml"
    [ "S1-suppression-reason" ]

let test_hot_clean () =
  check_rules "clean hot code passes" "hot_clean.ml" []

let test_hot_submodule () =
  check_rules "hot binding in submodule resolves" "hot_submodule.ml" []

(* A constant constructor payload, a named local loop and a local ref,
   in hot bodies and in a non-hot helper a hot body reaches. *)
let test_hot_shapes_clean () =
  check_rules "non-allocating shapes pass" "hot_shapes_clean.ml" [];
  Alcotest.(check (list string))
    "and nothing is merely suppressed" []
    (rules_of (in_file "hot_shapes_clean.ml" (Lazy.force report).suppressed))

(* ---------- the real tree ---------- *)

(* The installed corpus; a missing one fails with [Load_error] instead
   of passing vacuously. *)
let test_lib_clean () =
  let r = Cdna_lint.analyze (Program.load "../../install/default/lib/cdna") in
  Alcotest.(check bool) "lib/ has files" true (r.cmt_files > 50);
  Alcotest.(check (list string))
    "lib/ is violation-free" []
    (List.map Program.violation_to_string r.violations)

(* [main.exe --only D1] semantics over two fixtures' diagnostics: the
   bare prefix and the full rule name both select, a non-prefix selects
   nothing. *)
let test_only_filter () =
  let diags =
    viols_in "det_iter_unsorted.ml" @ viols_in "det_poly_compare.ml"
  in
  let count only =
    List.length
      (List.filter
         (fun (v : Program.violation) -> Program.rule_matches ~only v.rule)
         diags)
  in
  Alcotest.(check int) "D1 prefix filter" 1 (count (Some "D1"));
  Alcotest.(check int) "full rule name filter" 3
    (count (Some "D2-poly-compare"));
  Alcotest.(check int) "'D' is not a rule prefix" 0 (count (Some "D"));
  Alcotest.(check int) "no filter keeps everything" 4 (count None)

let () =
  Alcotest.run "cdna_lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "iter unsorted" `Quick test_iter_unsorted;
          Alcotest.test_case "fold unsorted vs sorted" `Quick
            test_fold_unsorted;
          Alcotest.test_case "aliased Hashtbl" `Quick test_alias_hashtbl;
          Alcotest.test_case "poly compare" `Quick test_poly_compare;
          Alcotest.test_case "nondet primitives" `Quick test_nondet;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "construct" `Quick test_alloc_construct;
          Alcotest.test_case "closure" `Quick test_alloc_closure;
          Alcotest.test_case "call" `Quick test_alloc_call;
          Alcotest.test_case "partial app" `Quick test_alloc_partial;
          Alcotest.test_case "function passed as a value" `Quick
            test_alloc_value;
        ] );
      ( "protection",
        [
          Alcotest.test_case "ownership" `Quick test_prot_ownership;
          Alcotest.test_case "ownership allowed in xen" `Quick
            test_prot_ownership_allowed_in_xen;
          Alcotest.test_case "guest memory" `Quick test_prot_guest_mem;
          Alcotest.test_case "privileged module" `Quick test_prot_privileged;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "justified annotations" `Quick test_suppressed;
          Alcotest.test_case "missing reason" `Quick test_missing_reason;
          Alcotest.test_case "clean hot code" `Quick test_hot_clean;
          Alcotest.test_case "hot in submodule" `Quick test_hot_submodule;
          Alcotest.test_case "non-allocating hot shapes" `Quick
            test_hot_shapes_clean;
        ] );
      ( "tree",
        [
          Alcotest.test_case "lib violation-free" `Quick test_lib_clean;
          Alcotest.test_case "--only rule filtering" `Quick test_only_filter;
        ] );
    ]
