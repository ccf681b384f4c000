(* Fixture suite for cdna_lint: each known-bad snippet must produce
   exactly the expected multiset of rule hits (under a pretend lib path,
   since the protection rules key off the directory), annotated variants
   none, and the real lib/ tree must be violation-free. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_fixture ~pretend_path fixture =
  let src = read_file (Filename.concat "fixtures" fixture) in
  Cdna_lint.run [ (pretend_path, src) ]

let rules_of diags = List.map (fun d -> d.Cdna_lint.rule) diags

let check_rules name ~pretend_path fixture expected =
  let diags, _ = lint_fixture ~pretend_path fixture in
  Alcotest.(check (list string))
    name (List.sort String.compare expected)
    (List.sort String.compare (rules_of diags))

(* ---------- determinism family ---------- *)

let test_iter_unsorted () =
  check_rules "iter flagged" ~pretend_path:"lib/foo/a.ml" "det_iter_unsorted.ml"
    [ "D1-unordered-iter" ]

let test_fold_unsorted () =
  (* Only the unsorted fold is flagged; both sort-wrapped forms pass. *)
  check_rules "fold flagged once" ~pretend_path:"lib/foo/a.ml"
    "det_fold_unsorted.ml" [ "D1-unordered-iter" ]

let test_alias_hashtbl () =
  (* Aliasing must not launder hash-order iteration: top-level alias,
     let-module alias, and explicit Stdlib qualification all count. *)
  check_rules "aliased Hashtbl flagged" ~pretend_path:"lib/foo/a.ml"
    "det_alias_hashtbl.ml"
    [ "D1-unordered-iter"; "D1-unordered-iter"; "D1-unordered-iter" ]

let test_poly_compare () =
  check_rules "poly compare" ~pretend_path:"lib/foo/a.ml" "det_poly_compare.ml"
    [ "D2-poly-compare"; "D2-poly-compare"; "D2-poly-compare" ]

let test_nondet () =
  check_rules "nondet primitives" ~pretend_path:"lib/foo/a.ml" "det_nondet.ml"
    [ "D3-nondet-primitive"; "D3-nondet-primitive"; "D3-nondet-primitive" ]

(* ---------- zero-alloc family ---------- *)

let test_alloc_construct () =
  check_rules "construction in hot body" ~pretend_path:"lib/foo/a.ml"
    "alloc_construct.ml"
    [ "A1-alloc-construct"; "A1-alloc-construct"; "A1-alloc-construct" ]

let test_alloc_closure () =
  check_rules "closure in hot body" ~pretend_path:"lib/foo/a.ml"
    "alloc_closure.ml" [ "A2-alloc-closure" ]

let test_alloc_call () =
  check_rules "non-hot call in hot body" ~pretend_path:"lib/foo/a.ml"
    "alloc_call.ml" [ "A3-alloc-call" ]

let test_alloc_partial () =
  check_rules "partial application in hot body" ~pretend_path:"lib/foo/a.ml"
    "alloc_partial.ml" [ "A4-partial-app" ]

(* ---------- protection family ---------- *)

let test_prot_ownership () =
  check_rules "ownership mutation outside hypervisor"
    ~pretend_path:"lib/nic/bad.ml" "prot_ownership.ml"
    [
      "P1-ownership-boundary"; "P1-ownership-boundary"; "P1-ownership-boundary";
    ]

let test_prot_ownership_allowed_in_xen () =
  let diags, _ =
    lint_fixture ~pretend_path:"lib/xen/fine.ml" "prot_ownership.ml"
  in
  Alcotest.(check (list string)) "no P1 under lib/xen" [] (rules_of diags)

let test_prot_guest_mem () =
  check_rules "direct guest memory access" ~pretend_path:"lib/guestos/bad.ml"
    "prot_guest_mem.ml"
    [
      "P2-guest-memory-boundary"; "P2-guest-memory-boundary";
      "P2-guest-memory-boundary"; "P2-guest-memory-boundary";
      "P2-guest-memory-boundary";
    ];
  (* The driver core's staging helper, and the in-place compare and the
     string store, are byte access like Phys_mem's read and write. *)
  let diags, _ =
    lint_fixture ~pretend_path:"lib/guestos/bad.ml" "prot_guest_mem.ml"
  in
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
       (fun d ->
         if d.Cdna_lint.line >= 6 then Some (d.Cdna_lint.line, d.Cdna_lint.msg)
         else None)
       diags);
  (* The same code outside the restricted layers is fine. *)
  let diags, _ =
    lint_fixture ~pretend_path:"lib/experiments/fine.ml" "prot_guest_mem.ml"
  in
  Alcotest.(check (list string)) "no P2 outside nic/guestos" [] (rules_of diags)

let test_prot_privileged () =
  let diags, stats =
    lint_fixture ~pretend_path:"lib/nic/priv.ml" "prot_privileged.ml"
  in
  Alcotest.(check (list string)) "privileged module clean" [] (rules_of diags);
  Alcotest.(check int) "privilege counted as suppression" 1
    (match List.assoc_opt "cdna.privileged" stats.Cdna_lint.suppression_counts with
    | Some n -> n
    | None -> 0)

(* ---------- suppression machinery ---------- *)

let test_suppressed () =
  let diags, stats =
    lint_fixture ~pretend_path:"lib/guestos/ok.ml" "suppressed.ml"
  in
  Alcotest.(check (list string)) "all suppressed" [] (rules_of diags);
  let total =
    List.fold_left (fun a (_, n) -> a + n) 0 stats.Cdna_lint.suppression_counts
  in
  Alcotest.(check bool) "suppressions tracked" true (total >= 5)

let test_missing_reason () =
  check_rules "reasonless suppression flagged" ~pretend_path:"lib/foo/a.ml"
    "missing_reason.ml" [ "S1-suppression-reason" ]

let test_hot_clean () =
  check_rules "clean hot code passes" ~pretend_path:"lib/foo/a.ml"
    "hot_clean.ml" []

let test_hot_submodule () =
  check_rules "hot binding in submodule resolves" ~pretend_path:"lib/foo/a.ml"
    "hot_submodule.ml" []

(* ---------- the real tree ---------- *)

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc e -> collect_ml acc (Filename.concat path e))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let test_lib_clean () =
  let root = Filename.concat ".." "lib" in
  if not (Sys.file_exists root) then ()
  else begin
    let files =
      collect_ml [] root
      |> List.sort String.compare
      |> List.map (fun p -> (p, read_file p))
    in
    Alcotest.(check bool) "lib/ has files" true (List.length files > 50);
    let diags, _ = Cdna_lint.run files in
    Alcotest.(check (list string))
      "lib/ is violation-free" []
      (List.map Cdna_lint.diag_to_string diags)
  end

(* [main.exe --only D1] semantics over parsetree diagnostics: the bare
   prefix and the full rule name both select, a non-prefix selects
   nothing. *)
let test_only_filter () =
  let files =
    List.map
      (fun f -> ("lib/foo/" ^ f, read_file (Filename.concat "fixtures" f)))
      [ "det_iter_unsorted.ml"; "det_poly_compare.ml" ]
  in
  let diags, _ = Cdna_lint.run files in
  let count only =
    List.length
      (List.filter (fun d -> Program.rule_matches ~only d.Cdna_lint.rule) diags)
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
        ] );
      ( "tree",
        [
          Alcotest.test_case "lib violation-free" `Quick test_lib_clean;
          Alcotest.test_case "--only rule filtering" `Quick test_only_filter;
        ] );
    ]
