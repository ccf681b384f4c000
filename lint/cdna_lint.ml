(* cdna_lint — the per-expression rules over the compiled corpus.

   Runs on the same [Program.t] typedtrees as [Cdna_flow], [Cdna_dom]
   and [Cdna_proto], with every name resolved by [Program.canon_of]
   (module and [let module] aliases, dune wrapping, [open]s), and
   enforces three invariant families on every [.ml] under [lib/]:

   - (D) Determinism: no unordered [Hashtbl] iteration feeding anything
     (unless sorted or justified), no polymorphic compare/hash on
     structured values, no wall-clock / GC / Marshal primitives.
   - (A) Zero-allocation hot paths: no allocation is reachable from a
     [@cdna.hot] entry. One classifier runs on each hot body and, call
     edge by call edge, on every non-hot lib function it calls or passes
     as a value. A finding names its site kind (A1-A5) and carries the
     entry -> site chain; hot callees are entries of their own.
   - (P) Protection boundaries: page-ownership and IOMMU-permission
     mutation is confined to the hypervisor-side layers (P1), and the
     NIC / guest-OS layers reach guest memory only through
     [Bus.Dma_engine] (P2) — the paper's validated-descriptor rule,
     PAPER.md §3.2.

   Anything the rules cannot prove safe must be rewritten or carry a
   justification annotation, which is counted and exported so
   suppressions are tracked over time.

   Annotation contract (see DESIGN.md §9):
     [@cdna.hot]                  marks a toplevel function hot (A rules apply)
     [@cdna.unordered_ok "why"]   suppresses D1 on the annotated subtree
     [@cdna.polyeq_ok "why"]      suppresses D2
     [@cdna.nondet_ok "why"]      suppresses D3
     [@cdna.alloc_ok "why"]       suppresses A1-A5 (the walk stops there)
     [@cdna.protection_ok "why"]  suppresses P1-P2
     [@@@cdna.privileged "why"]   (module level) exempts the scope from P rules
     [@@@cdna.layer "nic"]        (module level) sets the scope's layer
   A suppression without a non-empty reason string is itself a violation
   (S1). *)

open Program
include Program.Diag

type report = {
  cmt_files : int;
  hot_functions : int;
  violations : violation list; (* unsuppressed, sorted *)
  suppressed : violation list;
  suppressions : (string * int) list; (* annotation -> occurrences *)
}

let rule_d1 = "D1-unordered-iter"
let rule_d2 = "D2-poly-compare"
let rule_d3 = "D3-nondet-primitive"
let rule_a1 = "A1-alloc-construct"
let rule_a2 = "A2-alloc-closure"
let rule_a3 = "A3-alloc-call"
let rule_a4 = "A4-partial-app"
let rule_a5 = "A5-boxed-arith"
let rule_p1 = "P1-ownership-boundary"
let rule_p2 = "P2-guest-memory-boundary"
let rule_s1 = "S1-suppression-reason"

(* ------------------------------------------------------------------ *)
(* Rules as data: canonical names                                      *)
(* ------------------------------------------------------------------ *)

(* Suppression kinds, keyed by the attribute that activates them. *)
let suppression_attrs =
  [
    ("cdna.unordered_ok", [ rule_d1 ]);
    ("cdna.polyeq_ok", [ rule_d2 ]);
    ("cdna.nondet_ok", [ rule_d3 ]);
    ("cdna.alloc_ok", [ rule_a1; rule_a2; rule_a3; rule_a4; rule_a5 ]);
    ("cdna.protection_ok", [ rule_p1; rule_p2 ]);
  ]

let unordered_fns =
  SSet.of_list
    [
      "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
      "Hashtbl.to_seq_values"; "Hashtbl.filter_map_inplace";
    ]

let sort_fns =
  SSet.of_list
    [
      "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
      "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
    ]

(* Polymorphic comparison / hashing entry points that are hazardous on any
   structured value; flagged at every occurrence, even as a bare value. *)
let poly_idents =
  SSet.of_list
    [
      "Stdlib.compare"; "Hashtbl.hash"; "Hashtbl.hash_param";
      "Hashtbl.seeded_hash";
    ]

let cmp_ops =
  SSet.of_list
    [
      "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>"; "Stdlib.<=";
      "Stdlib.>=";
    ]

(* Nondeterministic primitives: wall clock, self-seeding, GC observation,
   Marshal (output depends on sharing/flags, and is unreadable in traces). *)
let forbidden_idents =
  SSet.of_list
    [
      "Random.self_init"; "Sys.time"; "Unix.gettimeofday"; "Unix.time";
      "Unix.gmtime"; "Unix.localtime";
    ]

let forbidden_modules = SSet.of_list [ "Gc"; "Marshal" ]

(* P1: ownership / IOMMU-permission mutation, and the layers that may. *)
let ownership_fns =
  SSet.of_list
    [
      "Phys_mem.alloc"; "Phys_mem.populate"; "Phys_mem.free";
      "Phys_mem.transfer"; "Phys_mem.get_ref"; "Phys_mem.put_ref";
      "Iommu.grant"; "Iommu.revoke"; "Iommu.revoke_context";
    ]

let ownership_layers = SSet.of_list [ "xen"; "host"; "memory" ]

(* P2: direct byte access to simulated physical memory, including the
   guest driver core's payload staging and read-back, which do it on the
   caller's behalf; and the layers that must not. *)
let byte_access_fns =
  SSet.of_list
    [
      "Phys_mem.read"; "Phys_mem.write"; "Phys_mem.read_into";
      "Phys_mem.write_sub"; "Phys_mem.write_string";
      "Phys_mem.equal_string"; "Phys_mem.read_uint"; "Phys_mem.write_uint";
      "Phys_mem.read_u16"; "Phys_mem.write_u16"; "Phys_mem.read_u32";
      "Phys_mem.write_u32"; "Phys_mem.read_u64"; "Phys_mem.write_u64";
      "Netdev.write_payload"; "Netdev.read_payload";
    ]

let guest_layers = SSet.of_list [ "nic"; "guestos" ]

(* Non-allocating primitives callable from hot code. [ref] is accepted:
   a local ref that never escapes is unboxed by ocamlopt, and the escape
   vectors (capture by a closure, storage in a structure) are sites
   themselves. *)
let allowed =
  SSet.of_list
    [
      "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
      "Bytes.unsafe_set"; "Bytes.blit"; "Bytes.unsafe_blit";
      "Bytes.blit_string"; "Bytes.fill"; "Bytes.unsafe_fill";
      "Bytes.get_uint8"; "Bytes.set_uint8";
      "String.length"; "String.get"; "String.unsafe_get";
      "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
      "Array.unsafe_set"; "Array.blit"; "Array.unsafe_blit"; "Array.fill";
      "Char.code"; "Char.chr"; "Char.unsafe_chr";
      "Int.compare"; "Int.equal"; "Int.min"; "Int.max"; "Int.abs";
      "Int.logand"; "Int.logor"; "Int.logxor"; "Int.shift_left";
      "Int.shift_right"; "Int.shift_right_logical";
      "Lazy.force"; "Sys.opaque_identity";
      (* Per-domain slot read; allocates only on a key's first access on
         a new domain (one-time init, like Lazy.force). *)
      "DLS.get";
      "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.length";
      "Queue.length"; "Queue.is_empty"; "Queue.pop"; "Queue.take";
      "Stdlib.min"; "Stdlib.max"; "Stdlib.abs"; "Stdlib.succ";
      "Stdlib.pred"; "Stdlib.not"; "Stdlib.ignore"; "Stdlib.fst";
      "Stdlib.snd"; "Stdlib.incr"; "Stdlib.decr"; "Stdlib.ref"; "Stdlib.lnot";
      "List.compare_lengths";
      (* Project-local: [Sim.Trace.tag_enabled] is a pure flag check. *)
      "Trace.tag_enabled";
    ]

(* Calls that leave the steady-state path: their arguments may allocate
   (exception payloads are error-path only). *)
let cold_exits =
  SSet.of_list
    [
      "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.invalid_arg";
      "Stdlib.failwith";
    ]

let alloc_operators = SSet.of_list [ "Stdlib.^"; "Stdlib.@"; "Stdlib.^^" ]

let float_operators =
  SSet.of_list
    [
      "Stdlib.+."; "Stdlib.-."; "Stdlib.*."; "Stdlib./."; "Stdlib.**";
      "Stdlib.~-."; "Stdlib.float_of_int"; "Stdlib.abs_float";
      "Stdlib.mod_float"; "Float.of_int";
    ]

let boxed_arith_modules = SSet.of_list [ "Int64"; "Int32"; "Nativeint" ]

let is_operator_name name =
  String.length name > 0
  && (String.contains "!$%&*+-./:<=>?@^|~" name.[0]
     || SSet.mem name
          (SSet.of_list
             [ "or"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr" ]))

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Every attribute on [e], including those the typechecker keeps on
   [exp_extra] (constraints, coercions, local opens). *)
let expr_attrs (e : Typedtree.expression) =
  e.exp_attributes @ List.concat_map (fun (_, _, attrs) -> attrs) e.exp_extra

(* "Stdlib.compare" reads as "compare" in messages. *)
let display c =
  if String.starts_with ~prefix:"Stdlib." c then
    String.sub c 7 (String.length c - 7)
  else c

(* [((f a) b) c] -> ([f], [a; b; c]), omitted arguments dropped. *)
let rec flatten_apply (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_apply (f, args) ->
      let head, inner = flatten_apply f in
      (head, inner @ List.filter_map snd args)
  | _ -> (e, [])

let module_of c =
  match String.index_opt c '.' with Some i -> String.sub c 0 i | None -> ""

let viol ?(chain = []) ~sup rule (loc : Location.t) msg =
  let p = loc.loc_start in
  {
    rule;
    file = p.pos_fname;
    line = p.pos_lnum;
    col = Some (p.pos_cnum - p.pos_bol);
    msg;
    chain;
    suppress = sup;
  }

(* ------------------------------------------------------------------ *)
(* D, P and S: one walk over every structure                           *)
(* ------------------------------------------------------------------ *)

let check_structures prog add annots =
  let name e = Option.value (ident_name prog e) ~default:"" in
  let layer = ref "" and privileged = ref false in
  let sup = ref SMap.empty (* rule -> reason of the innermost mask *) in
  let sorted_ok = ref [] (* unordered iterations feeding a sort *) in
  let report rule loc msg =
    add (viol ~sup:(SMap.find_opt rule !sup) rule loc msg)
  in
  let count k = annots := k :: !annots in
  (* Count and validate suppression attributes; mask their rules below. *)
  let suppress attrs =
    List.iter
      (fun (a : Parsetree.attribute) ->
        match List.assoc_opt (attr_name a) suppression_attrs with
        | None -> ()
        | Some rules ->
            count (attr_name a);
            let reason = Option.value (attr_reason a) ~default:"" in
            if String.trim reason = "" then
              report rule_s1 a.attr_loc
                (Printf.sprintf "[@%s] must carry a non-empty reason string"
                   (attr_name a));
            List.iter (fun r -> sup := SMap.add r reason !sup) rules)
      attrs
  in
  let check_ident (e : Typedtree.expression) c =
    if SSet.mem c poly_idents then
      report rule_d2 e.exp_loc
        (Printf.sprintf
           "polymorphic %s: use a typed comparison (Int.compare, \
            String.compare, ...) or annotate [@cdna.polyeq_ok]"
           (display c));
    if SSet.mem c forbidden_idents then
      report rule_d3 e.exp_loc
        (Printf.sprintf
           "%s is nondeterministic; route randomness through Sim.Rng and \
            time through Sim.Engine, or annotate [@cdna.nondet_ok]"
           c)
    else if SSet.mem (module_of c) forbidden_modules then
      report rule_d3 e.exp_loc
        (Printf.sprintf
           "%s: %s is forbidden in lib/ (nondeterministic or \
            representation-dependent); annotate [@cdna.nondet_ok] if this is \
            diagnostics-only"
           c (module_of c));
    if not !privileged then begin
      if SSet.mem c ownership_fns && not (SSet.mem !layer ownership_layers)
      then
        report rule_p1 e.exp_loc
          (Printf.sprintf
             "%s mutates page ownership / DMA permissions; only lib/xen, \
              lib/host and lib/memory may (or declare the module \
              [@@@cdna.privileged \"reason\"])"
             c);
      if SSet.mem c byte_access_fns && SSet.mem !layer guest_layers then
        report rule_p2 e.exp_loc
          (Printf.sprintf
             "%s bypasses DMA protection: lib/nic and lib/guestos must reach \
              guest memory through Bus.Dma_engine (or justify with \
              [@cdna.protection_ok])"
             c)
    end
  in
  (* [c args], where [c] heads the application; the typechecker has
     already rewritten [x |> f a] and [f a @@ x] into [f a x]. *)
  let check_apply (e : Typedtree.expression) c args =
    let head, all_args = flatten_apply e in
    let mark (a : Typedtree.expression) =
      match a.exp_desc with
      | Typedtree.Texp_apply (f, _) when SSet.mem (name f) unordered_fns ->
          sorted_ok := a :: !sorted_ok
      | _ -> ()
    in
    if SSet.mem (name head) sort_fns then List.iter mark all_args;
    if SSet.mem c unordered_fns && not (List.memq e !sorted_ok) then
      report rule_d1 e.exp_loc
        (Printf.sprintf
           "%s iterates in hash order; sort the result by a stable key \
            (List.sort around the fold) or annotate [@cdna.unordered_ok \
            \"reason\"]"
           c);
    let compound (a : Typedtree.expression) =
      match a.exp_desc with
      | Typedtree.Texp_tuple _ | Texp_record _ | Texp_array _ | Texp_lazy _
      | Texp_construct (_, _, _ :: _)
      | Texp_variant (_, Some _) ->
          true
      | _ -> false
    in
    if SSet.mem c cmp_ops && List.exists compound args then
      report rule_d2 e.exp_loc
        (Printf.sprintf
           "polymorphic (%s) on a structured value; compare the fields \
            explicitly or use a typed equal"
           (display c))
  in
  let scoped f =
    let saved = !sup in
    f ();
    sup := saved
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      structure =
        (fun it str ->
          let saved = (!layer, !privileged) in
          let attrs = floating_attrs str in
          List.iter
            (fun a ->
              if attr_name a = "cdna.privileged" then count "cdna.privileged")
            attrs;
          let l, p = refine_scope saved attrs in
          layer := l;
          privileged := p;
          default_iterator.structure it str;
          layer := fst saved;
          privileged := snd saved);
      value_binding =
        (fun it vb ->
          scoped (fun () ->
              suppress vb.vb_attributes;
              default_iterator.value_binding it vb));
      expr =
        (fun it e ->
          scoped (fun () ->
              suppress (expr_attrs e);
              (match e.exp_desc with
              | Typedtree.Texp_ident _ -> check_ident e (name e)
              | Typedtree.Texp_apply (f, args) ->
                  check_apply e (name f) (List.filter_map snd args)
              | _ -> ());
              default_iterator.expr it e));
    }
  in
  List.iter
    (fun (file, str) ->
      layer := layer_of_file file;
      privileged := false;
      it.structure it str)
    prog.units

(* ------------------------------------------------------------------ *)
(* A: allocation reachable from [@cdna.hot] entries                    *)
(* ------------------------------------------------------------------ *)

let is_hot attrs = has_attr "cdna.hot" attrs

let alloc_ok attrs ~default =
  match find_attr "cdna.alloc_ok" attrs with
  | Some a -> Some (Option.value (attr_reason a) ~default:"")
  | None -> default

(* A payload the compiler allocates statically (a structured constant). *)
let rec static (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_constant _ -> true
  | Typedtree.Texp_construct (_, _, args) -> List.for_all static args
  | Typedtree.Texp_variant (_, arg) -> Option.fold ~none:true ~some:static arg
  | Typedtree.Texp_tuple es -> List.for_all static es
  | _ -> false

(* The allocation [e] itself performs, other than calls and closures. *)
let alloc_site (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_tuple _ when not (static e) ->
      Some (rule_a1, "tuple construction allocates")
  | Typedtree.Texp_record _ -> Some (rule_a1, "record construction allocates")
  | Typedtree.Texp_array (_ :: _) -> Some (rule_a1, "array literal allocates")
  | Typedtree.Texp_construct (_, _, _ :: _) when not (static e) ->
      Some (rule_a1, "constructor application allocates")
  | Typedtree.Texp_variant (_, Some _) when not (static e) ->
      Some (rule_a1, "polymorphic-variant payload allocates")
  | Typedtree.Texp_lazy _ -> Some (rule_a1, "lazy suspension allocates")
  | Typedtree.Texp_object _ | Texp_pack _ | Texp_letmodule _ ->
      Some (rule_a1, "first-class module / object allocates")
  | Typedtree.Texp_constant (Asttypes.Const_float _) ->
      Some (rule_a5, "float literal (float results are boxed)")
  | _ -> None

(* What calling [c], which is not a lib function, costs. *)
let external_call c =
  if SSet.mem c allowed || not (String.contains c '.') then None
  else if SSet.mem (module_of c) boxed_arith_modules then
    Some (rule_a5, display c ^ " works on boxed numbers")
  else if SSet.mem c float_operators then
    Some (rule_a5, "float operator " ^ display c ^ " boxes its result")
  else if SSet.mem c alloc_operators then
    Some (rule_a1, display c ^ " allocates")
  else if is_operator_name (last_comp c) then None
  else
    Some
      ( rule_a3,
        Printf.sprintf
          "calls %s (neither [@cdna.hot] nor an allowlisted primitive)"
          (display c) )

let arity (g : fn) =
  List.length g.f_params
  + match g.f_body.exp_desc with Typedtree.Texp_function _ -> 1 | _ -> 0

(* One body's allocation sites, as (rule, what, loc, suppression), and
   the non-hot lib functions it calls or passes as values outside a
   suppressed subtree, with the line of the reference. The body's own
   leading [fun] chain, and a named local function, are compiled
   statically when every use is a direct call: not closures. *)
let classify prog ~toplevel ~modname ~sup body =
  let sites = ref [] and calls = ref [] in
  let lib_fn (fe : Typedtree.expression) =
    match fe.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _)
      when not (Ident.Set.mem id toplevel) ->
        None (* a parameter or local binding *)
    | Typedtree.Texp_ident (p, _, _) ->
        find_fn prog ~modname (canon_of prog.aliases (Path.name p))
    | _ -> None
  in
  let rec visit sup (e : Typedtree.expression) =
    let sup = alloc_ok (expr_attrs e) ~default:sup in
    let site (rule, what) = sites := (rule, what, e.exp_loc, sup) :: !sites in
    let call (g : fn) =
      if sup = None && not (is_hot g.f_attrs) then
        calls := (g, loc_line e.exp_loc) :: !calls
    in
    match (e.exp_desc, flatten_apply e) with
    | ( Typedtree.Texp_apply _,
        (({ exp_desc = Texp_ident (p, _, _); _ } as fe), args) ) ->
        let c = canon_of prog.aliases (Path.name p) in
        if not (SSet.mem c cold_exits) then begin
          (match lib_fn fe with
          | Some g ->
              let n = List.length args in
              if n < arity g then
                site
                  ( rule_a4,
                    Printf.sprintf
                      "partial application of %s (%d of %d args) builds a \
                       closure"
                      (display c) n (arity g) );
              call g
          | None -> Option.iter site (external_call c));
          List.iter (visit sup) args
        end
    | Typedtree.Texp_ident _, _ -> Option.iter call (lib_fn e)
    | Typedtree.Texp_let (_, vbs, body), _ ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            visit_fun (alloc_ok vb.vb_attributes ~default:sup) vb.vb_expr)
          vbs;
        visit sup body
    | Typedtree.Texp_function _, _ ->
        site
          ( rule_a2,
            "anonymous function captures its environment (closure \
             allocation)" );
        visit_fun sup e
    | _ ->
        Option.iter site (alloc_site e);
        iter_children (visit sup) e
  and visit_fun sup (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_function { cases; _ } ->
        let sup = alloc_ok (expr_attrs e) ~default:sup in
        List.iter
          (fun (c : _ Typedtree.case) ->
            Option.iter (visit sup) c.c_guard;
            visit_fun sup c.c_rhs)
          cases
    | _ -> visit sup e
  in
  visit_fun sup body;
  (List.rev !sites, List.rev !calls)

(* Depth-first from each hot entry over the non-hot lib functions it
   reaches; every site is reported with the chain that reaches it. *)
let check_hot prog add =
  let toplevel =
    List.fold_left
      (fun s b ->
        match pat_var b.b_vb.vb_pat with
        | Some (id, _) -> Ident.Set.add id s
        | None -> s)
      Ident.Set.empty prog.bindings
  in
  List.iter
    (fun b ->
      if is_hot b.b_vb.vb_attributes then begin
        let visited = Hashtbl.create 16 in
        let rec walk ~id ~file ~modname ~where ~sup ~path body =
          let sites, calls = classify prog ~toplevel ~modname ~sup body in
          List.iter
            (fun (rule, what, loc, sup) ->
              add (viol ~chain:path ~sup rule loc (what ^ where)))
            sites;
          List.iter
            (fun ((g : fn), line) ->
              if not (Hashtbl.mem visited g.f_id) then begin
                Hashtbl.add visited g.f_id ();
                walk ~id:g.f_id ~file:g.f_file ~modname:g.f_module
                  ~where:
                    (Printf.sprintf " in %s, reachable from [@cdna.hot] code"
                       g.f_id)
                  ~sup:(alloc_ok g.f_attrs ~default:None)
                  ~path:
                    (path
                    @ [
                        hop_at
                          (Printf.sprintf "%s calls %s" id g.f_id)
                          file line;
                      ])
                  g.f_body
              end)
            calls
        in
        Hashtbl.add visited b.b_id ();
        walk ~id:b.b_id ~file:b.b_scope.s_file ~modname:b.b_scope.s_module
          ~where:" in a [@cdna.hot] body"
          ~sup:(alloc_ok b.b_vb.vb_attributes ~default:None)
          ~path:
            [
              hop_at ("hot entry " ^ b.b_id) b.b_scope.s_file
                (loc_line b.b_vb.vb_loc);
            ]
          b.b_vb.vb_expr
      end)
    prog.bindings

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let analyze (prog : Program.t) =
  let viols = ref [] and annots = ref [] in
  let add v = viols := v :: !viols in
  check_structures prog add annots;
  check_hot prog add;
  let violations, suppressed = finalize (List.rev !viols) in
  let hot =
    List.filter_map
      (fun b -> if is_hot b.b_vb.vb_attributes then Some b.b_id else None)
      prog.bindings
  in
  {
    cmt_files = prog.files;
    hot_functions = SSet.cardinal (SSet.of_list hot);
    violations;
    suppressed;
    suppressions = count_by Fun.id !annots;
  }

let report_to_json r =
  Sim.Json.Obj
    [
      ("files_scanned", Sim.Json.Int r.cmt_files);
      ("hot_functions", Sim.Json.Int r.hot_functions);
      ("violations", Sim.Json.Int (List.length r.violations));
      ("rules", rule_counts_json r.violations);
      ("suppressions", counts_json r.suppressions);
    ]
