(* cdna_flow — interprocedural guest-taint verification over compiled
   [.cmt] typedtrees (compiler-libs), on the corpus [Program.load] reads
   once.

   (T1/T2) guest-taint: values originating from guest-readable memory
   ([Phys_mem.read_*], descriptor reads via [Desc_layout.read],
   [Mailbox] PIO payloads, [Xchan] messages) are tainted and must pass
   through a declared sanitizer ([Iommu.allowed], [Seqno.continuous], or
   any function marked [@cdna.sanitizer]) before flowing into an
   address/length argument of a DMA sink ([Bus.Dma_engine.*], [Phys_mem]
   writes, [Desc_layout.write], [Iommu.grant], [Phys_mem.get_ref]) or
   into the addr/len fields of a [Memory.Dma_desc.t] record under
   construction. Violations carry the full source -> call chain -> sink
   path with file:line per hop.

   Reachable allocation from [@cdna.hot] code and the ownership boundary
   are [Cdna_lint]'s rules (DESIGN.md section 9).

   Annotation contract (DESIGN.md section 10):
     [@cdna.sanitizer]       the function validates guest data; applying
                             it to a variable cleanses that binding for
                             the rest of the enclosing function
     [@cdna.source]          the function returns guest-controlled data
     [@cdna.flow_ok "why"]   suppresses a flow violation on the subtree
     [@@@cdna.layer "nic"]   (module level) overrides the path-derived
                             layer, for fixtures compiled out of tree

   Soundness envelope (documented, deliberate): taint does not propagate
   through mutable state (Queue/Hashtbl/mutable fields act as cuts — the
   datapath drains them under its own sequencing discipline), and a
   local closure analyzed at its binding site assumes clean parameters.
   Both limits are one-sided: they can miss flows, never invent them. *)

open Program
include Program.Diag

type report = {
  cmt_files : int;
  functions : int;
  violations : violation list; (* unsuppressed, sorted *)
  suppressed : violation list;
  sanitizer_fns : int;
  rounds : int; (* summary fixpoint rounds *)
}

let rule_t1 = "T1-guest-taint"
let rule_t2 = "T2-desc-construct"

(* ------------------------------------------------------------------ *)
(* Source / sink / sanitizer contract                                  *)
(* ------------------------------------------------------------------ *)

let declared_sources =
  SSet.of_list
    [
      "Phys_mem.read"; "Phys_mem.equal_string"; "Phys_mem.read_uint";
      "Phys_mem.read_u16"; "Phys_mem.read_u32"; "Phys_mem.read_u64";
      "Desc_layout.read";
      "Mailbox.value"; "Xchan.tx_peek"; "Xchan.tx_pop"; "Xchan.rx_pop";
      "Xchan.take_tx_completions"; "Xchan.take_returned_pages";
    ]

let declared_sanitizers = SSet.of_list [ "Iommu.allowed"; "Seqno.continuous" ]

(* Sensitive arguments per sink: labelled args by label, positional args
   by 0-based index among the [Nolabel] arguments. *)
type sens = Lab of string | Pos of int

let declared_sinks : sens list SMap.t =
  SMap.of_seq
    (List.to_seq
       [
         ("Dma_engine.read_into", [ Lab "addr"; Lab "len" ]);
         ("Dma_engine.write_from", [ Lab "addr"; Lab "len" ]);
         ("Dma_engine.write_words", [ Lab "addr" ]);
         ("Dma_engine.access", [ Lab "addr"; Lab "len" ]);
         ("Phys_mem.write", [ Lab "addr" ]);
         ("Phys_mem.write_sub", [ Lab "addr"; Lab "len" ]);
         ("Phys_mem.write_string", [ Lab "addr" ]);
         ("Phys_mem.write_uint", [ Lab "addr" ]);
         ("Phys_mem.write_u16", [ Lab "addr" ]);
         ("Phys_mem.write_u32", [ Lab "addr" ]);
         ("Phys_mem.write_u64", [ Lab "addr" ]);
         ("Desc_layout.write", [ Lab "at" ]);
         (* The field-wise form of [write]: its [addr]/[len] are the
            fields T2 checks on a [Dma_desc.t] under construction. *)
         ("Desc_layout.write_fields", [ Lab "at"; Lab "addr"; Lab "len" ]);
         ("Iommu.grant", [ Pos 1 ]);
         ("Phys_mem.get_ref", [ Pos 1 ]);
       ])

(* Modules modeled purely by the contract above: their bodies implement
   the primitives (bounds checks, IOMMU walks) and are exempt from taint
   evaluation — analyzing them would re-flag the very validation code
   the contract declares trusted. *)
let contract_modules =
  SSet.of_list
    [
      "Phys_mem"; "Iommu"; "Dma_engine"; "Desc_layout"; "Mailbox"; "Xchan";
      "Addr"; "Dma_desc"; "Seqno";
    ]

(* Higher-order stdlib combinators: a literal lambda argument has its
   parameters bound to the joined taint of the other (collection)
   arguments, so element flows survive [List.iter (fun e -> ...) xs]. *)
let hof_fns =
  SSet.of_list
    [
      "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.rev_map";
      "List.concat_map"; "List.filter_map"; "List.filter"; "List.fold_left";
      "List.fold_right"; "List.exists"; "List.for_all"; "List.find";
      "List.find_opt"; "List.partition"; "Array.iter"; "Array.iteri";
      "Array.map"; "Array.mapi"; "Array.fold_left"; "Queue.iter";
      "Queue.fold"; "Hashtbl.iter"; "Hashtbl.fold"; "Option.iter";
      "Option.map"; "Option.bind"; "Option.fold"; "Seq.iter"; "Seq.map";
      "Seq.fold_left";
    ]

let contract (f : fn) = SSet.mem f.f_module contract_modules

(* ------------------------------------------------------------------ *)
(* Taint lattice                                                       *)
(* ------------------------------------------------------------------ *)

type origin = {
  o_src : string;
  o_hops : hop list; (* head = the source read itself *)
}

type taint =
  | Clean
  | Fn of string * taint (* known function value, return taint *)
  | T of origin option * ISet.t (* source- and/or parameter-tainted *)
  | Fields of taint SMap.t

type flow = { fl_param : int; fl_sink : string; fl_hops : hop list }

type summary = { s_ret : taint; s_flows : flow list }

let norm = function T (None, s) when ISet.is_empty s -> Clean | t -> t

let rec collapse = function
  | Fields m -> SMap.fold (fun _ v acc -> join (collapse v) acc) m Clean
  | Fn _ -> Clean
  | t -> t

(* The first origin wins: its hop chain is the witness, not part of the
   abstract value. *)
and join a b =
  match (norm a, norm b) with
  | Clean, x | x, Clean -> x
  | Fn _, x | x, Fn _ -> x
  | Fields f, Fields g ->
      Fields
        (SMap.union (fun _ x y -> Some (join x y)) f g)
  | (Fields _ as f), x | x, (Fields _ as f) -> join (collapse f) x
  | T (o1, p1), T (o2, p2) ->
      T ((match o1 with Some _ -> o1 | None -> o2), ISet.union p1 p2)

let proj t lbl =
  match t with
  | Fields m -> ( match SMap.find_opt lbl m with Some x -> x | None -> Clean)
  | t -> collapse t

(* Summaries as a [Program.LATTICE]: the return taint plus one flow per
   (parameter, sink) key. [equal] looks through origins and flows to
   their keys only, ignoring hop chains. *)
module Summary = struct
  type t = summary

  let bottom = { s_ret = Clean; s_flows = [] }
  let same_key a b = a.fl_param = b.fl_param && a.fl_sink = b.fl_sink

  let join a b =
    {
      s_ret = join a.s_ret b.s_ret;
      s_flows =
        a.s_flows
        @ List.filter
            (fun fl -> not (List.exists (same_key fl) a.s_flows))
            b.s_flows;
    }

  (* Set internals are not structurally stable across construction
     orders, hence a canonical rendering. *)
  let rec shape = function
    | Clean -> "c"
    | Fn (n, t) -> "f(" ^ n ^ "," ^ shape t ^ ")"
    | T (o, ps) ->
        Printf.sprintf "t(%s;%s)"
          (match o with None -> "-" | Some o -> o.o_src)
          (String.concat "," (List.map string_of_int (ISet.elements ps)))
    | Fields m ->
        "{"
        ^ String.concat ";"
            (List.map (fun (k, v) -> k ^ "=" ^ shape v) (SMap.bindings m))
        ^ "}"

  let keys s =
    List.sort compare (List.map (fun fl -> (fl.fl_param, fl.fl_sink)) s.s_flows)

  let equal a b = shape a.s_ret = shape b.s_ret && keys a = keys b
end

module Solver = Fixpoint.Make (Summary)

(* ------------------------------------------------------------------ *)
(* Taint evaluation (passes 3-4)                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  prog : Program.t;
  cur : fn;
  summary : string -> summary; (* callee summaries, by id *)
  report : bool;
  viols : violation list ref;
  flows : flow list ref;
}

let fn_of_name ctx name = find_fn ctx.prog ~modname:ctx.cur.f_module name

let declared_by ctx set attr name =
  SSet.mem name set
  ||
  match fn_of_name ctx name with
  | Some f -> has_attr attr f.f_attrs
  | None -> false

let is_source ctx = declared_by ctx declared_sources "cdna.source"
let is_sanitizer ctx = declared_by ctx declared_sanitizers "cdna.sanitizer"

(* Each of the current function's parameters [ps] reaches [sink]. *)
let add_flows ctx ps sink hops =
  ISet.iter
    (fun i ->
      ctx.flows :=
        { fl_param = i; fl_sink = sink; fl_hops = hops } :: !(ctx.flows))
    ps

let record_violation ctx ~sup ~rule ~loc ~msg ~chain =
  ctx.viols :=
    { rule; file = loc_file loc; line = loc_line loc; col = None; msg; chain;
      suppress = sup }
    :: !(ctx.viols)

(* [@cdna.flow_ok "why"] suppresses flow violations on a subtree. *)
let flow_ok attrs ~default =
  match find_attr "cdna.flow_ok" attrs with
  | Some a -> Some (Option.value (attr_reason a) ~default:"")
  | None -> default

(* The root variable of an access path ([desc], [e] in [e.Xchan.pfn]),
   used to cleanse bindings when a sanitizer inspects them. *)
let rec root_ident (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some id
  | Typedtree.Texp_field (e, _, _) -> root_ident e
  | _ -> None

let bind_pat : type k.
    taint IdentMap.t -> k Typedtree.general_pattern -> taint -> taint IdentMap.t
    =
 fun env p t ->
  Program.bind_pat env p t ~part:(fun at t ->
      match at with
      | Elem i -> proj t (string_of_int i)
      | Field l -> proj t l
      | Payload | Cell -> collapse t
      | Exn -> Clean)

let env_join a b = IdentMap.union (fun _ x y -> Some (join x y)) a b

(* Instantiate a callee origin at a call site: extend its hop chain with
   the call itself so cross-module paths read end to end. *)
let extend_origin o ~callee ~caller loc =
  {
    o with
    o_hops =
      o.o_hops
      @ [ hop (Printf.sprintf "return of %s flows into %s" callee caller) loc ];
  }

let sens_args args specs =
  (* [args]: (label string option, taint, expr) in call order. *)
  let pos = ref (-1) in
  List.filter_map
    (fun (lbl, t, e) ->
      (match lbl with None -> incr pos | Some _ -> ());
      let hit =
        List.exists
          (function
            | Lab l -> Some l = lbl
            | Pos i -> lbl = None && i = !pos)
          specs
      in
      if hit then Some (lbl, t, e) else None)
    args

let dma_desc_record (e : Typedtree.expression) =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, _, _) -> canon_of SMap.empty (Path.name p) = "Dma_desc.t"
  | _ -> false

let rec eval ctx ~(sup : string option) env (e : Typedtree.expression) :
    taint * taint IdentMap.t =
  let sup = flow_ok e.exp_attributes ~default:sup in
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      match IdentMap.find_opt id env with
      | Some t -> (t, env)
      | None -> (
          match fn_of_name ctx (Ident.name id) with
          | Some f -> (Fn (f.f_id, Clean), env)
          | None -> (Clean, env)))
  | Typedtree.Texp_ident (p, _, _) ->
      let c = canon_of ctx.prog.aliases (Path.name p) in
      if SMap.mem c ctx.prog.fns then (Fn (c, Clean), env) else (Clean, env)
  | Typedtree.Texp_constant _ -> (Clean, env)
  | Typedtree.Texp_let (rf, vbs, body) ->
      let env =
        List.fold_left (fun env vb -> bind_vb ctx ~sup ~rf env vb) env vbs
      in
      eval ctx ~sup env body
  | Typedtree.Texp_function _ ->
      (* Anonymous closure: analyze the body now, in the capturing
         environment, with unknown (clean) parameters. *)
      let ret = eval_closure ctx ~sup env e Clean in
      (Fn ("<closure>", ret), env)
  | Typedtree.Texp_apply (fe, args) -> eval_apply ctx ~sup env e fe args
  | Typedtree.Texp_match (scrut, cases, _) ->
      let t, env = eval ctx ~sup env scrut in
      eval_cases ctx ~sup env t cases
  | Typedtree.Texp_try (body, cases) ->
      let t, env = eval ctx ~sup env body in
      let t2, env2 = eval_cases ctx ~sup env Clean cases in
      (join t t2, env_join env env2)
  | Typedtree.Texp_tuple es ->
      let env, fields =
        List.fold_left
          (fun (env, acc) e' ->
            let t, env = eval ctx ~sup env e' in
            (env, acc @ [ t ]))
          (env, []) es
      in
      ( Fields
          (SMap.of_seq
             (List.to_seq
                (List.mapi (fun i t -> (string_of_int i, t)) fields))),
        env )
  | Typedtree.Texp_construct (_, _, es) | Typedtree.Texp_array es ->
      List.fold_left
        (fun (acc, env) e' ->
          let t, env = eval ctx ~sup env e' in
          (join acc (collapse t), env))
        (Clean, env) es
  | Typedtree.Texp_variant (_, Some e') ->
      let t, env = eval ctx ~sup env e' in
      (collapse t, env)
  | Typedtree.Texp_variant (_, None) -> (Clean, env)
  | Typedtree.Texp_record { fields; extended_expression; _ } ->
      let base, env =
        match extended_expression with
        | Some e' -> eval ctx ~sup env e'
        | None -> (Clean, env)
      in
      let env = ref env in
      let m =
        Array.fold_left
          (fun m ((ld : Types.label_description), def) ->
            let t =
              match def with
              | Typedtree.Overridden (_, e') ->
                  let t, env' = eval ctx ~sup !env e' in
                  env := env';
                  t
              | Typedtree.Kept _ -> proj base ld.lbl_name
            in
            SMap.add ld.lbl_name t m)
          SMap.empty fields
      in
      (* T2: a DMA descriptor built from guest-controlled addr/len is a
         forged descriptor in the making. *)
      if dma_desc_record e then
        List.iter
          (fun fld ->
            match SMap.find_opt fld m with
            | Some (T (Some o, _)) when ctx.report ->
                record_violation ctx ~sup ~rule:rule_t2 ~loc:e.exp_loc
                  ~msg:
                    (Printf.sprintf
                       "Dma_desc.%s built from guest-tainted value (source %s) \
                        without sanitization"
                       fld o.o_src)
                  ~chain:
                    (o.o_hops
                    @ [ hop ("Dma_desc." ^ fld ^ " construction") e.exp_loc ])
            | _ -> ())
          [ "addr"; "len" ];
      (Fields m, !env)
  | Typedtree.Texp_field (e', _, ld) ->
      let t, env = eval ctx ~sup env e' in
      (proj t ld.lbl_name, env)
  | Typedtree.Texp_setfield (e1, _, _, e2) ->
      (* Mutable store: taint is cut here (documented limitation). *)
      let _, env = eval ctx ~sup env e1 in
      let _, env = eval ctx ~sup env e2 in
      (Clean, env)
  | Typedtree.Texp_ifthenelse (c, th, el) ->
      let _, env = eval ctx ~sup env c in
      let t1, env1 = eval ctx ~sup env th in
      let t2, env2 =
        match el with
        | Some el -> eval ctx ~sup env el
        | None -> (Clean, env)
      in
      (join t1 t2, env_join env1 env2)
  | Typedtree.Texp_sequence (a, b) ->
      let _, env = eval ctx ~sup env a in
      eval ctx ~sup env b
  | Typedtree.Texp_while (c, body) ->
      let _, env = eval ctx ~sup env c in
      let _, env' = eval ctx ~sup env body in
      (Clean, env_join env env')
  | Typedtree.Texp_for (id, _, lo, hi, _, body) ->
      let _, env = eval ctx ~sup env lo in
      let _, env = eval ctx ~sup env hi in
      let _, env' = eval ctx ~sup (IdentMap.add id Clean env) body in
      (Clean, env_join env env')
  | Typedtree.Texp_assert (e', _) ->
      let _, env = eval ctx ~sup env e' in
      (Clean, env)
  | Typedtree.Texp_lazy e' -> eval ctx ~sup env e'
  | Typedtree.Texp_open (_, e') -> eval ctx ~sup env e'
  | Typedtree.Texp_letmodule (_, _, _, _, body) -> eval ctx ~sup env body
  | _ ->
      (* Constructs without a dedicated rule: evaluate children in the
         ambient environment; the result is unknown, hence clean. *)
      iter_children (fun sub -> ignore (eval ctx ~sup env sub)) e;
      (Clean, env)

and eval_cases : type k. ctx -> sup:string option -> taint IdentMap.t -> taint
    -> k Typedtree.case list -> taint * taint IdentMap.t =
 fun ctx ~sup env scrut_t cases ->
  List.fold_left
    (fun (acc_t, acc_env) (c : k Typedtree.case) ->
      let env_c = bind_pat env c.c_lhs scrut_t in
      let env_c =
        match c.c_guard with
        | Some g ->
            let _, env_c = eval ctx ~sup env_c g in
            env_c
        | None -> env_c
      in
      let t, env' = eval ctx ~sup env_c c.c_rhs in
      (join acc_t t, env_join acc_env env'))
    (Clean, env) cases

(* Analyze a literal lambda in the current (capturing) environment with
   its parameters bound to [param_t]; returns the body's taint. *)
and eval_closure ctx ~sup env (e : Typedtree.expression) param_t =
  let params, body = peel_params e in
  let env =
    List.fold_left (fun env (_, p) -> bind_pat env p param_t) env params
  in
  match body.exp_desc with
  | Typedtree.Texp_function { cases; _ } ->
      let t, _ = eval_cases ctx ~sup env param_t cases in
      t
  | _ ->
      let t, _ = eval ctx ~sup env body in
      t

and bind_vb ctx ~sup ~rf env (vb : Typedtree.value_binding) =
  let sup = flow_ok vb.vb_attributes ~default:sup in
  match vb.vb_expr.exp_desc with
  | Typedtree.Texp_function _ -> (
      (* Local function: analyze once at the binding site. Captured
         bindings keep their current taint; parameters are assumed
         clean. The binding carries the body's return taint so
         [let r = f x] at a later call site stays tracked. *)
      let self_env =
        match (rf, vb.vb_pat.pat_desc) with
        | Asttypes.Recursive, Typedtree.Tpat_var (id, _) ->
            IdentMap.add id (Fn ("<local>", Clean)) env
        | _ -> env
      in
      let ret = eval_closure ctx ~sup self_env vb.vb_expr Clean in
      match vb.vb_pat.pat_desc with
      | Typedtree.Tpat_var (id, _) ->
          IdentMap.add id (Fn ("<local>", ret)) env
      | _ -> env)
  | _ ->
      let t, env = eval ctx ~sup env vb.vb_expr in
      bind_pat env vb.vb_pat t

and eval_apply ctx ~sup env (e : Typedtree.expression) fe args =
  let loc = e.Typedtree.exp_loc in
  (* Resolve the callee. *)
  let callee_name, callee_taint =
    match fe.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
        match IdentMap.find_opt id env with
        | Some (Fn (n, r)) -> (Some n, Some (Fn (n, r)))
        | Some _ | None -> (Some (Ident.name id), None))
    | Typedtree.Texp_ident (p, _, _) ->
        (Some (canon_of ctx.prog.aliases (Path.name p)), None)
    | _ ->
        let _, _ = eval ctx ~sup env fe in
        (None, None)
  in
  let hofish =
    match callee_name with Some n -> SSet.mem n hof_fns | None -> false
  in
  (* Evaluate non-lambda arguments first; literal lambdas are deferred so
     HOFs can bind their parameters to the element taint. *)
  let env = ref env in
  let evald =
    List.map
      (fun (lbl, a) ->
        let lbl_s = label_name lbl in
        match a with
        | Some ({ Typedtree.exp_desc = Texp_function _; _ } as a) when hofish
          ->
            (lbl_s, None, Some a)
        | Some a ->
            let t, env' = eval ctx ~sup !env a in
            env := env';
            (lbl_s, Some (t, a), None)
        | None -> (lbl_s, None, None))
      args
  in
  let arg_taints =
    List.filter_map
      (fun (lbl, ta, _) -> Option.map (fun (t, a) -> (lbl, t, a)) ta)
      evald
  in
  let joined_args =
    List.fold_left (fun acc (_, t, _) -> join acc (collapse t)) Clean arg_taints
  in
  (* Now analyze deferred lambdas with parameters bound to the element
     taint of the traversed collection: the joined argument taint. *)
  List.iter
    (fun (_, _, lam) ->
      Option.iter
        (fun l -> ignore (eval_closure ctx ~sup !env l joined_args))
        lam)
    evald;
  match callee_name with
  | Some c when is_sanitizer ctx c ->
      (* Sanitizer application cleanses the inspected bindings for the
         rest of the function. *)
      let env' =
        List.fold_left
          (fun env (_, _, a) ->
            match root_ident a with
            | Some id -> IdentMap.add id Clean env
            | None -> env)
          !env arg_taints
      in
      (Clean, env')
  | Some c when is_source ctx c ->
      ( T
          ( Some
              {
                o_src = c;
                o_hops =
                  [ hop (Printf.sprintf "source %s in %s" c ctx.cur.f_id) loc ];
              },
            ISet.empty ),
        !env )
  | Some c when SMap.mem c declared_sinks ->
      let specs = SMap.find c declared_sinks in
      List.iter
        (fun (lbl, t, _) ->
          match collapse t with
          | T (Some o, _) when ctx.report ->
              let what =
                match lbl with Some l -> "~" ^ l | None -> "argument"
              in
              record_violation ctx ~sup ~rule:rule_t1 ~loc
                ~msg:
                  (Printf.sprintf
                     "guest-tainted value (source %s) reaches DMA sink %s %s \
                      without sanitization"
                     o.o_src c what)
                ~chain:(o.o_hops @ [ hop (Printf.sprintf "sink %s %s" c what) loc ])
          | T (_, ps) -> add_flows ctx ps c [ hop ("sink " ^ c) loc ]
          | _ -> ())
        (sens_args arg_taints specs);
      (Clean, !env)
  | Some c -> (
      match fn_of_name ctx c with
      | Some callee when not (contract callee) ->
          (* Apply the callee's summary. *)
          let assigned = assign_params callee arg_taints in
          let call_hop =
            hop (Printf.sprintf "call %s from %s" callee.f_id ctx.cur.f_id) loc
          in
          (* Param-to-sink flows recorded in the callee surface here. *)
          List.iter
            (fun fl ->
              match List.assoc_opt fl.fl_param assigned with
              | Some t -> (
                  match collapse t with
                  | T (o, ps) ->
                      (match o with
                      | Some o when ctx.report ->
                          record_violation ctx ~sup ~rule:rule_t1 ~loc
                            ~msg:
                              (Printf.sprintf
                                 "guest-tainted value (source %s) reaches DMA \
                                  sink %s via %s without sanitization"
                                 o.o_src fl.fl_sink callee.f_id)
                            ~chain:(o.o_hops @ (call_hop :: fl.fl_hops))
                      | _ -> ());
                      add_flows ctx ps fl.fl_sink (call_hop :: fl.fl_hops)
                  | _ -> ())
              | None -> ())
            (ctx.summary callee.f_id).s_flows;
          (* Instantiate the return taint. *)
          ( instantiate (ctx.summary callee.f_id).s_ret assigned
              ~callee:callee.f_id ~caller:ctx.cur.f_id loc,
            !env )
      | _ -> (
          match callee_taint with
          | Some (Fn (_, ret)) ->
              (* Local function value: its return taint was computed at
                 the binding site. *)
              (ret, !env)
          | _ ->
              (* Unknown / external / contract-primitive call: the result
                 conservatively carries the joined argument taint. *)
              (joined_args, !env)))
  | None -> (joined_args, !env)

and assign_params (callee : fn) arg_taints =
  (* Map evaluated arguments to the callee's parameter indices: labelled
     args match labels, positional args fill positional slots in order. *)
  let labels = List.mapi (fun i (l, _) -> (i, l)) callee.f_params in
  let positional =
    List.filter_map (fun (i, l) -> if l = None then Some i else None) labels
  in
  let next_pos = ref positional in
  List.filter_map
    (fun (lbl, t, _) ->
      match lbl with
      | Some l -> (
          match
            List.find_opt (fun (_, pl) -> pl = Some l) labels
          with
          | Some (i, _) -> Some (i, t)
          | None -> None)
      | None -> (
          match !next_pos with
          | i :: rest ->
              next_pos := rest;
              Some (i, t)
          | [] -> None))
    arg_taints

and instantiate ret assigned ~callee ~caller loc =
  let rec go = function
    | Clean -> Clean
    | Fn _ -> Clean
    | Fields m -> Fields (SMap.map go m)
    | T (o, ps) ->
        let from_params =
          ISet.fold
            (fun i acc ->
              match List.assoc_opt i assigned with
              | Some t -> join acc (collapse t)
              | None -> acc)
            ps Clean
        in
        let from_src =
          match o with
          | Some o -> T (Some (extend_origin o ~callee ~caller loc), ISet.empty)
          | None -> Clean
        in
        join from_src from_params
  in
  norm (go ret)

(* One taint pass over a function body; returns the new summary. *)
let eval_fn prog ~summary ~report viols (f : fn) =
  let ctx = { prog; cur = f; summary; report; viols; flows = ref [] } in
  let env =
    List.fold_left
      (fun (env, i) (_, p) -> (bind_pat env p (T (None, ISet.singleton i)), i + 1))
      (IdentMap.empty, 0) f.f_params
    |> fst
  in
  let ret, _ = eval ctx ~sup:None env f.f_body in
  (* Keep one flow per (param, sink) pair — the first found is the
     shortest chain under our evaluation order. *)
  let flows =
    List.fold_left
      (fun acc fl ->
        if List.exists (Summary.same_key fl) acc then acc else fl :: acc)
      [] (List.rev !(ctx.flows))
    |> List.rev
  in
  let ret =
    match norm ret with
    | Fields m -> norm (Fields (SMap.map (fun t -> norm (collapse t)) m))
    | t -> t
  in
  { s_ret = ret; s_flows = flows }

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let analyze (prog : Program.t) =
  (* Taint fixpoint over summaries, then one reporting pass. *)
  let analyzed =
    SMap.filter (fun _ f -> (not (contract f)) && not f.f_privileged) prog.fns
  in
  let summary, rounds =
    Solver.solve (List.map fst (SMap.bindings analyzed)) (fun read id ->
        eval_fn prog ~summary:read ~report:false (ref [])
          (SMap.find id prog.fns))
  in
  let viols = ref [] in
  SMap.iter
    (fun _ f -> ignore (eval_fn prog ~summary ~report:true viols f))
    analyzed;
  let violations, suppressed = finalize (List.rev !viols) in
  let sanitizers =
    List.filter
      (fun b -> is_fn b && has_attr "cdna.sanitizer" b.b_vb.vb_attributes)
      prog.bindings
  in
  {
    cmt_files = prog.files;
    functions = SMap.cardinal prog.fns;
    violations;
    suppressed;
    sanitizer_fns = List.length sanitizers;
    rounds;
  }

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let report_to_json r =
  Sim.Json.Obj
    [
      ("cmt_files", Sim.Json.Int r.cmt_files);
      ("functions", Sim.Json.Int r.functions);
      ("violations", Sim.Json.Int (List.length r.violations));
      ("rules", rule_counts_json r.violations);
      ("suppressions", Sim.Json.Int (List.length r.suppressed));
      ("sanitizer_fns", Sim.Json.Int r.sanitizer_fns);
    ]
