(* cdna_dom: static domain-safety / race detector for the parallel core.

   Third verification layer, over the same corpus [Program.load] reads
   for [Cdna_flow]. [Sim.Shard] runs logical processes (LPs) on worker
   domains; any mutable value shared between LPs without going through
   [Domain.DLS] or the shard pool's mutex/condition merge path is a data
   race waiting for a multicore runner. This pass finds that state
   statically:

   1. {b Collect} every piece of module-level mutable state in the tree:
      toplevel / submodule bindings of mutable type (ref, array, bytes,
      Hashtbl.t, Queue.t, Stack.t, Buffer.t, lazy_t, mutable-field
      records), plus state captured by toplevel closures
      ([let f = let cache = Hashtbl.create .. in fun x -> ..]) and
      toplevel aliases of such state across modules.

   2. {b Reach}: compute which functions can run inside an LP callback.
      Every function in an LP-resident layer (the simulated hardware and
      OS stack: nic / guestos / xen / host / memory / bus / core /
      ethernet / workload) is LP code by construction; elsewhere (sim,
      experiments) a literal closure passed to [Engine.schedule],
      [Engine.schedule_at], [Shard.send] or to any LP-layer function is
      an LP entry, and the set closes over call edges. Witness chains are
      kept per hop, [file:line], like [Cdna_flow]'s taint chains.

   3. {b Classify} each item on the lattice: [dls] (Domain.DLS-backed),
      [sync] (Mutex / Condition / Semaphore / Atomic — synchronization
      primitives, domain-safe by construction), [frozen] (written only by
      its initializer, which runs on the main domain before any
      [Domain.spawn]), [lp-local] (never referenced from LP-capable
      code), [barrier] (every referencing function takes a mutex /
      condition first — the shard pool's merge path), [domain-local]
      (asserted by annotation), or [shared] — mutable, written, and
      reachable from LP context: a violation.

   Annotation contract (drift-gated like all other suppressions):
   - [[@cdna.domain_local]] on the binding: positive assertion that the
     value, though mutable, is only ever touched by a single LP (or only
     between windows). No reason string required; counted in stats.
   - [[@cdna.domain_shared "reason"]] on the binding (or
     [[@@@cdna.domain_shared "reason"]] for a whole module): suppress the
     violation; the reason string is mandatory (rule DS1).

   Rules:
   - DM1-shared-mutable: toplevel mutable state reachable from LP code.
   - DM2-captured-shared: closure-captured state reachable from LP code.
   - DM3-domain-local-misuse: [@cdna.domain_local] on a non-state binding.
   - DS1-suppression-reason: [@cdna.domain_shared] without a reason. *)

open Program
include Program.Diag

let rule_dm1 = "DM1-shared-mutable"
let rule_dm2 = "DM2-captured-shared"
let rule_dm3 = "DM3-domain-local-misuse"
let rule_ds1 = "DS1-suppression-reason"

(* ------------------------------------------------------------------ *)
(* Classification lattice                                              *)
(* ------------------------------------------------------------------ *)

type cls = Dls | Sync | Frozen | Lp_local | Barrier | Domain_local | Shared

let cls_name = function
  | Dls -> "dls"
  | Sync -> "sync"
  | Frozen -> "frozen"
  | Lp_local -> "lp-local"
  | Barrier -> "barrier"
  | Domain_local -> "domain-local"
  | Shared -> "shared"

(* ------------------------------------------------------------------ *)
(* Program representation                                              *)
(* ------------------------------------------------------------------ *)

type item = {
  i_id : string; (* "Mod.name", or "Mod.fn.name" for captured state *)
  i_kind : string; (* "ref", "Hashtbl.t", "mutable record", ... *)
  i_file : string;
  i_line : int;
  i_captured_in : string option; (* defining function, for closures *)
  i_alias_of : string option; (* [let t = A.t]: canonical target *)
  i_domain_local : bool;
  i_suppress : string option; (* domain_shared reason; Some "" = missing *)
  i_sync : bool;
  i_dls : bool;
  mutable i_class : cls;
}

type use = {
  u_item : string; (* item id as referenced (possibly an alias) *)
  u_fn : string;
  u_what : string;
  u_write : bool;
  u_line : int;
  u_sched : bool; (* inside a closure scheduled onto an engine *)
}

type dcall = { dc_callee : string; dc_line : int; dc_sched : bool }

type dfn = {
  d_id : string;
  d_module : string;
  d_file : string;
  d_line : int;
  d_layer : string;
  d_body : Typedtree.expression;
  mutable d_locks : bool; (* takes a mutex / waits a condition *)
  mutable d_calls : dcall list;
}

type prog = {
  core : Program.t;
  mutable fns : dfn SMap.t;
  mutable items : item SMap.t;
  mutable uses : use list;
  mutable extra_viols : violation list; (* DM3 / DS1 *)
  mutable n_domain_local : int;
  mutable n_domain_shared : int;
  (* Captured-state idents -> item id, for closure-captured state. *)
  mutable captured : string IdentMap.t;
}

type report = {
  cmt_files : int;
  functions : int;
  state_items : int;
  classes : (string * int) list; (* class name -> count, sorted *)
  violations : violation list; (* unsuppressed, sorted *)
  suppressed : violation list;
  domain_local : int; (* [@cdna.domain_local] assertions *)
  domain_shared : int; (* [@cdna.domain_shared] suppressions *)
}

(* ------------------------------------------------------------------ *)
(* LP layers and scheduling primitives                                 *)
(* ------------------------------------------------------------------ *)

(* Everything in these layers executes inside engine callbacks: the
   simulated hardware/OS stack (lib/cdna, the CDNA hypervisor extension,
   included) is driven exclusively by scheduled events. [sim] and
   [experiments] are mixed control-plane/LP code and rely on closure
   reachability instead. *)
let lp_layers =
  SSet.of_list
    [
      "nic"; "guestos"; "xen"; "host"; "memory"; "bus"; "core"; "ethernet";
      "workload"; "cdna-ext";
    ]

(* A literal closure passed to one of these runs as an engine callback
   on whatever domain the LP lands on. *)
let sched_prims =
  SSet.of_list [ "Engine.schedule"; "Engine.schedule_at"; "Shard.send" ]

(* Functions that make the enclosing caller part of the barrier-guarded
   merge path. *)
let lock_fns =
  SSet.of_list
    [ "Mutex.lock"; "Mutex.protect"; "Condition.wait"; "Semaphore.acquire" ]

(* ------------------------------------------------------------------ *)
(* Read / write contract per container                                 *)
(* ------------------------------------------------------------------ *)

(* Canonical ("Mod.fn") or bare operator names that only read their
   container argument. *)
let read_fns =
  SSet.of_list
    [
      "!";
      "Hashtbl.find"; "Hashtbl.find_opt"; "Hashtbl.find_all"; "Hashtbl.mem";
      "Hashtbl.length"; "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq";
      "Hashtbl.to_seq_keys"; "Hashtbl.to_seq_values";
      "Array.get"; "Array.unsafe_get"; "Array.length"; "Array.iter";
      "Array.iteri"; "Array.fold_left"; "Array.fold_right"; "Array.map";
      "Array.mapi"; "Array.to_list"; "Array.mem"; "Array.exists";
      "Array.for_all"; "Array.copy"; "Array.sub";
      "Bytes.get"; "Bytes.unsafe_get"; "Bytes.length"; "Bytes.sub";
      "Bytes.sub_string"; "Bytes.to_string"; "Bytes.copy";
      "Bytes.get_uint8"; "Bytes.get_uint16_le"; "Bytes.get_int32_le";
      "Queue.length"; "Queue.is_empty"; "Queue.peek"; "Queue.peek_opt";
      "Queue.iter"; "Queue.fold"; "Queue.copy";
      "Stack.length"; "Stack.is_empty"; "Stack.top"; "Stack.top_opt";
      "Buffer.contents"; "Buffer.length"; "Buffer.to_bytes"; "Buffer.nth";
      "Lazy.is_val";
      "Atomic.get";
      "DLS.get";
    ]

(* Names that mutate their container argument. [Lazy.force] counts as a
   write: forcing the same suspension from two domains races. *)
let write_fns =
  SSet.of_list
    [
      ":="; "incr"; "decr";
      "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
      "Hashtbl.clear"; "Hashtbl.filter_map_inplace";
      "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit";
      "Array.sort"; "Array.fast_sort"; "Array.stable_sort";
      "Bytes.set"; "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
      "Bytes.blit_string"; "Bytes.unsafe_blit";
      "Bytes.set_uint8"; "Bytes.set_uint16_le"; "Bytes.set_int32_le";
      "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take";
      "Queue.take_opt"; "Queue.clear"; "Queue.transfer";
      "Stack.push"; "Stack.pop"; "Stack.pop_opt"; "Stack.clear";
      "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
      "Buffer.add_subbytes"; "Buffer.clear"; "Buffer.reset";
      "Lazy.force"; "Lazy.force_val";
      "Atomic.set"; "Atomic.incr"; "Atomic.decr"; "Atomic.exchange";
      "Atomic.compare_and_set"; "Atomic.fetch_and_add";
      "DLS.set";
    ]

(* ------------------------------------------------------------------ *)
(* Mutability of a binding, from its type                              *)
(* ------------------------------------------------------------------ *)

(* [Some kind] when a value of type [ty] is module-level mutable state;
   [`Dls] / [`Sync] short-circuit the classification. Record types are
   resolved through [env] so abbreviations of mutable-field records are
   caught too. *)
let rec state_kind aliases env fuel ty =
  if fuel = 0 then None
  else
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) -> (
        let c = canon_of aliases (Path.name p) in
        let k = last_comp c in
        if c = "DLS.key" then Some `Dls
        else if
          c = "Mutex.t" || c = "Condition.t" || c = "Atomic.t"
          || c = "Semaphore.t" || c = "Binary.t" || c = "Counting.t"
        then Some `Sync
        else if k = "ref" then Some (`Mut "ref")
        else if k = "array" then Some (`Mut "array")
        else if k = "bytes" then Some (`Mut "bytes")
        else if k = "lazy_t" || c = "Lazy.t" then Some (`Mut "lazy")
        else if c = "Hashtbl.t" then Some (`Mut "Hashtbl.t")
        else if c = "Queue.t" then Some (`Mut "Queue.t")
        else if c = "Stack.t" then Some (`Mut "Stack.t")
        else if c = "Buffer.t" then Some (`Mut "Buffer.t")
        else
          (* cmt envs are summaries: a direct lookup misses types the
             summary hasn't materialized, so fall back to rehydrating
             the env through the load path. *)
          let decl =
            match Env.find_type p env with
            | d -> Some d
            | exception Not_found -> (
                match Env.find_type p (Envaux.env_of_only_summary env) with
                | d -> Some d
                | exception _ -> None)
          in
          match decl with
          | None -> None
          | Some decl -> (
              match decl.Types.type_kind with
              | Types.Type_record (lds, _)
                when List.exists
                       (fun ld -> ld.Types.ld_mutable = Asttypes.Mutable)
                       lds ->
                  Some (`Mut "mutable record")
              | _ -> (
                  match decl.Types.type_manifest with
                  | Some ty' -> state_kind aliases env (fuel - 1) ty'
                  | None -> None)))
    | Types.Ttuple tys ->
        List.fold_left
          (fun acc ty' ->
            match acc with
            | Some _ -> acc
            | None -> state_kind aliases env (fuel - 1) ty')
          None tys
    | Types.Tlink ty' | Types.Tsubst (ty', _) ->
        state_kind aliases env (fuel - 1) ty'
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Collection (pass 1): items and functions from the binding table     *)
(* ------------------------------------------------------------------ *)

(* Peel the [let a = .. in let b = .. in fun x -> ..] spine of a
   toplevel closure: returns the captured bindings and whether the spine
   ends in a function. *)
let rec closure_spine (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> Some []
  | Typedtree.Texp_let (_, vbs, body) -> (
      match closure_spine body with
      | Some captured -> Some (vbs @ captured)
      | None -> None)
  | _ -> None

let add_item prog it = prog.items <- SMap.add it.i_id it prog.items

let extra_viol prog rule file line msg =
  prog.extra_viols <-
    { rule; file; line; col = None; msg; chain = []; suppress = None }
    :: prog.extra_viols

(* A [domain_shared] reason, [Some ""] (and a DS1) when it is missing. *)
let shared_reason prog a ~file ~line ~what =
  prog.n_domain_shared <- prog.n_domain_shared + 1;
  match attr_reason a with
  | Some r when String.trim r <> "" -> Some r
  | _ ->
      extra_viol prog rule_ds1 file line
        (Printf.sprintf
           "%s needs a reason string explaining why sharing is safe" what);
      Some ""

(* Whole-module suppression: the last [@@@cdna.domain_shared] of the
   binding's own structure (not inherited by submodules). *)
let register_scope prog (s : scope) =
  List.fold_left
    (fun acc a ->
      if attr_name a = "cdna.domain_shared" then
        shared_reason prog a ~file:s.s_file ~line:(loc_line a.attr_loc)
          ~what:
            (Printf.sprintf "[@@@cdna.domain_shared] on module %s" s.s_module)
      else acc)
    None s.s_attrs

let register_binding prog ~mod_suppress (b : binding) =
  let vb = b.b_vb and file = b.b_scope.s_file and id = b.b_id in
  let line = loc_line vb.vb_loc in
  let attrs = vb.vb_attributes in
  let domain_local = has_attr "cdna.domain_local" attrs in
  let suppress =
    match find_attr "cdna.domain_shared" attrs with
    | Some a ->
        shared_reason prog a ~file ~line
          ~what:(Printf.sprintf "[@cdna.domain_shared] on '%s'" id)
    | None -> mod_suppress
  in
  if domain_local then prog.n_domain_local <- prog.n_domain_local + 1;
  let mk ?(captured_in = None) ?(alias_of = None) ?(sync = false) ?(dls = false)
      ~id ~line kind =
    add_item prog
      {
        i_id = id;
        i_kind = kind;
        i_file = file;
        i_line = line;
        i_captured_in = captured_in;
        i_alias_of = alias_of;
        i_domain_local = domain_local;
        i_suppress = suppress;
        i_sync = sync;
        i_dls = dls;
        i_class = Lp_local;
      }
  in
  let dm3 () =
    extra_viol prog rule_dm3 file line
      (Printf.sprintf
         "[@cdna.domain_local] on '%s' which is not mutable module-level state"
         id)
  in
  match (vb.vb_expr.exp_desc, closure_spine vb.vb_expr) with
  | (Typedtree.Texp_function _ | Typedtree.Texp_let _), Some captured ->
      (* A function, possibly with captured state in its let-spine. *)
      let n_captured = ref 0 in
      List.iter
        (fun (cvb : Typedtree.value_binding) ->
          match pat_var cvb.vb_pat with
          | Some (cident, cname) -> (
              match
                state_kind prog.core.aliases cvb.vb_expr.exp_env 8
                  cvb.vb_expr.exp_type
              with
              | Some (`Mut kind) ->
                  incr n_captured;
                  let cid = id ^ "." ^ cname in
                  prog.captured <- IdentMap.add cident cid prog.captured;
                  mk ~captured_in:(Some id) ~id:cid ~line:(loc_line cvb.vb_loc)
                    kind
              | Some `Dls | Some `Sync | None -> ())
          | None -> ())
        captured;
      if domain_local && !n_captured = 0 then dm3 ();
      prog.fns <-
        SMap.add id
          {
            d_id = id;
            d_module = b.b_scope.s_module;
            d_file = file;
            d_line = line;
            d_layer = b.b_layer;
            d_body = vb.vb_expr;
            d_locks = false;
            d_calls = [];
          }
          prog.fns
  | _ -> (
      (* [let t = A.t]: an alias shares the target's identity, so it must
         win over the mutable-type check; resolved during
         classification. *)
      let alias_target =
        match vb.vb_expr.exp_desc with
        | Typedtree.Texp_ident (Path.Pident pid, _, _) ->
            let t = b.b_scope.s_module ^ "." ^ Ident.name pid in
            if SMap.mem t prog.items then Some t else None
        | Typedtree.Texp_ident (p, _, _) ->
            let t = canon_of prog.core.aliases (Path.name p) in
            if String.contains t '.' then Some t else None
        | _ -> None
      in
      match alias_target with
      | Some _ -> mk ~alias_of:alias_target ~id ~line "alias"
      | None -> (
          match
            state_kind prog.core.aliases vb.vb_expr.exp_env 8
              vb.vb_expr.exp_type
          with
          | Some `Dls -> mk ~dls:true ~id ~line "DLS.key"
          | Some `Sync -> mk ~sync:true ~id ~line "sync primitive"
          | Some (`Mut kind) -> mk ~id ~line kind
          | None -> if domain_local then dm3 ()))

(* ------------------------------------------------------------------ *)
(* Facts (pass 2): state uses, call edges, scheduled closures          *)
(* ------------------------------------------------------------------ *)

(* Resolve an expression to an item id: direct reference, same-module
   unqualified reference, closure-captured local, or function-local
   alias ([let t = A.table in .. t ..]). *)
let resolve_item prog ~f (local : string IdentMap.t)
    (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id -> (
          match IdentMap.find_opt id local with
          | Some item -> Some item
          | None -> (
              match IdentMap.find_opt id prog.captured with
              | Some item -> Some item
              | None ->
                  let qualified = f.d_module ^ "." ^ Ident.name id in
                  if SMap.mem qualified prog.items then Some qualified
                  else None))
      | _ ->
          let c = canon_of prog.core.aliases (Path.name p) in
          if SMap.mem c prog.items then Some c else None)
  | _ -> None

let collect_facts prog (f : dfn) =
  let calls = ref [] and uses = ref [] in
  let sched_depth = ref 0 in
  let add_call callee line =
    calls :=
      { dc_callee = callee; dc_line = line; dc_sched = !sched_depth > 0 }
      :: !calls
  in
  let add_use u_item u_what ~write:u_write u_line =
    uses :=
      { u_item; u_fn = f.d_id; u_what; u_write; u_line;
        u_sched = !sched_depth > 0 }
      :: !uses
  in
  (* Is [callee] an LP entry point for literal closure arguments? *)
  let schedules_closures callee =
    SSet.mem callee sched_prims
    ||
    match SMap.find_opt callee prog.fns with
    | Some g -> SSet.mem g.d_layer lp_layers
    | None -> false
  in
  let rec visit local (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, body) ->
        let local =
          List.fold_left
            (fun local (vb : Typedtree.value_binding) ->
              match
                (pat_var vb.vb_pat, resolve_item prog ~f local vb.vb_expr)
              with
              | Some (id, _), Some item ->
                  (* Pure local alias: track, don't count as a use. *)
                  IdentMap.add id item local
              | _ ->
                  visit local vb.vb_expr;
                  local)
            local vbs
        in
        visit local body
    | Typedtree.Texp_apply (fe, args) -> (
        match ident_name prog.core fe with
        | Some c ->
            let op = last_comp c in
            let line = loc_line e.exp_loc in
            add_call c line;
            let sched_arg = schedules_closures c in
            List.iter
              (fun ((_, a) : _ * Typedtree.expression option) ->
                match a with
                | None -> ()
                | Some a -> (
                    match resolve_item prog ~f local a with
                    | Some item ->
                        let listed set = SSet.mem c set || SSet.mem op set in
                        if listed write_fns then
                          add_use item ("write (" ^ op ^ ")") ~write:true line
                        else if listed read_fns then
                          add_use item ("read (" ^ op ^ ")") ~write:false line
                        else
                          (* Conservative: once the container escapes to
                             an arbitrary callee we must assume writes. *)
                          add_use item ("escapes to " ^ c) ~write:true line
                    | None -> (
                        match a.Typedtree.exp_desc with
                        | Typedtree.Texp_function _ when sched_arg ->
                            incr sched_depth;
                            visit local a;
                            decr sched_depth
                        | _ -> visit local a)))
              args
        | None -> iter_children (visit local) e)
    | Typedtree.Texp_setfield (e1, _, ld, e2) ->
        (match resolve_item prog ~f local e1 with
        | Some item ->
            add_use item
              (Printf.sprintf "field write (%s <-)" ld.Types.lbl_name)
              ~write:true (loc_line e.exp_loc)
        | None -> visit local e1);
        visit local e2
    | Typedtree.Texp_field (e1, _, ld) -> (
        match resolve_item prog ~f local e1 with
        | Some item ->
            add_use item
              (Printf.sprintf "field read (%s)" ld.Types.lbl_name)
              ~write:false (loc_line e.exp_loc)
        | None -> visit local e1)
    | Typedtree.Texp_ident _ -> (
        match resolve_item prog ~f local e with
        | Some item ->
            (* A bare reference we can't see through: escape. *)
            add_use item "referenced (escape)" ~write:true
              (loc_line e.exp_loc)
        | None -> ())
    | _ -> iter_children (visit local) e
  in
  visit IdentMap.empty f.d_body;
  let mem c = SMap.mem c prog.fns in
  let calls =
    List.rev_map
      (fun c ->
        { c with dc_callee = qualify ~mem ~modname:f.d_module c.dc_callee })
      !calls
  in
  f.d_calls <- calls;
  f.d_locks <-
    List.exists
      (fun c ->
        SSet.mem c.dc_callee lock_fns
        || SSet.mem (last_comp c.dc_callee) lock_fns)
      calls;
  prog.uses <- !uses @ prog.uses

(* ------------------------------------------------------------------ *)
(* LP reachability (pass 3)                                            *)
(* ------------------------------------------------------------------ *)

(* BFS over call edges from LP roots; [chains] maps each LP-capable
   function to its witness path (oldest hop first). *)
let lp_reachability prog =
  let chains : hop list SMap.t ref = ref SMap.empty in
  let queue = Queue.create () in
  let enqueue id chain =
    if not (SMap.mem id !chains) then begin
      chains := SMap.add id chain !chains;
      Queue.push id queue
    end
  in
  (* Roots, in deterministic order: layer-resident functions first, then
     closures handed to scheduling primitives. *)
  SMap.iter
    (fun id (f : dfn) ->
      if SSet.mem f.d_layer lp_layers then
        enqueue id
          [
            hop_at
              (Printf.sprintf "%s lives in LP-resident layer '%s'" id f.d_layer)
              f.d_file f.d_line;
          ])
    prog.fns;
  SMap.iter
    (fun _ (f : dfn) ->
      List.iter
        (fun c ->
          if c.dc_sched then
            match SMap.find_opt c.dc_callee prog.fns with
            | Some g ->
                enqueue g.d_id
                  [
                    hop_at
                      (Printf.sprintf
                         "%s called from a closure scheduled onto the engine \
                          in %s"
                         g.d_id f.d_id)
                      f.d_file c.dc_line;
                  ]
            | None -> ())
        f.d_calls)
    prog.fns;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let chain = SMap.find id !chains in
    match SMap.find_opt id prog.fns with
    | None -> ()
    | Some f ->
        List.iter
          (fun c ->
            match SMap.find_opt c.dc_callee prog.fns with
            | Some g when not (SMap.mem g.d_id !chains) ->
                enqueue g.d_id
                  (chain
                  @ [
                      hop_at
                        (Printf.sprintf "%s called from %s" g.d_id f.d_id)
                        f.d_file c.dc_line;
                    ])
            | _ -> ())
          f.d_calls
  done;
  !chains

(* ------------------------------------------------------------------ *)
(* Classification and reporting (pass 4)                               *)
(* ------------------------------------------------------------------ *)

(* Follow [let t = A.t] alias links to the root item, collecting one hop
   per link. *)
let resolve_alias prog (it : item) =
  let rec go fuel (it : item) hops =
    match it.i_alias_of with
    | Some target when fuel > 0 -> (
        match SMap.find_opt target prog.items with
        | Some root ->
            go (fuel - 1) root
              (hops
              @ [
                  hop_at
                    (Printf.sprintf "aliased as %s = %s" it.i_id target)
                    it.i_file it.i_line;
                ])
        | None -> None)
    | Some _ -> None
    | None -> Some (it, hops)
  in
  go 5 it []

let analyze (core : Program.t) =
  let prog =
    {
      core;
      fns = SMap.empty;
      items = SMap.empty;
      uses = [];
      extra_viols = [];
      n_domain_local = 0;
      n_domain_shared = 0;
      captured = IdentMap.empty;
    }
  in
  let scope_suppress =
    List.map (fun s -> (s, register_scope prog s)) core.scopes
  in
  List.iter
    (fun (b : binding) ->
      register_binding prog
        ~mod_suppress:(List.assq b.b_scope scope_suppress)
        b)
    core.bindings;
  let fns_sorted = SMap.bindings prog.fns |> List.map snd in
  List.iter (collect_facts prog) fns_sorted;
  let lp_chains = lp_reachability prog in
  (* Resolve uses through toplevel aliases onto root items. *)
  let resolved_uses =
    List.filter_map
      (fun u ->
        match SMap.find_opt u.u_item prog.items with
        | None -> None
        | Some it -> (
            match resolve_alias prog it with
            | Some (root, hops) -> Some (root.i_id, hops, u)
            | None -> None))
      prog.uses
  in
  let uses_of id =
    List.filter (fun (rid, _, _) -> rid = id) resolved_uses
    |> List.map (fun (_, hops, u) -> (hops, u))
    |> List.sort (fun (_, a) (_, b) ->
           let c = String.compare a.u_fn b.u_fn in
           if c <> 0 then c else Int.compare a.u_line b.u_line)
  in
  let viols = ref prog.extra_viols in
  let roots =
    SMap.bindings prog.items |> List.map snd
    |> List.filter (fun it -> it.i_alias_of = None)
  in
  List.iter
    (fun (it : item) ->
      if it.i_dls then it.i_class <- Dls
      else if it.i_sync then it.i_class <- Sync
      else begin
        let uses = uses_of it.i_id in
        let writes = List.filter (fun (_, u) -> u.u_write) uses in
        let lp_use (_, u) = u.u_sched || SMap.mem u.u_fn lp_chains in
        let lp_uses = List.filter lp_use uses in
        if it.i_domain_local then it.i_class <- Domain_local
        else if writes = [] then it.i_class <- Frozen
        else if lp_uses = [] then it.i_class <- Lp_local
        else if
          List.for_all
            (fun (_, u) ->
              match SMap.find_opt u.u_fn prog.fns with
              | Some f -> f.d_locks
              | None -> false)
            uses
        then it.i_class <- Barrier
        else begin
          it.i_class <- Shared;
          (* One violation per (item, LP-referencing function). *)
          let seen = ref SSet.empty in
          List.iter
            (fun (alias_hops, u) ->
              if not (SSet.mem u.u_fn !seen) then begin
                seen := SSet.add u.u_fn !seen;
                let use_file =
                  match SMap.find_opt u.u_fn prog.fns with
                  | Some g -> g.d_file
                  | None -> it.i_file
                in
                let witness =
                  match SMap.find_opt u.u_fn lp_chains with
                  | Some chain -> chain
                  | None ->
                      [
                        hop_at
                          (Printf.sprintf
                             "use sits in a closure %s schedules onto the \
                              engine"
                             u.u_fn)
                          use_file u.u_line;
                      ]
                in
                let decl =
                  hop_at
                    (Printf.sprintf "%s '%s' defined at module level" it.i_kind
                       it.i_id)
                    it.i_file it.i_line
                in
                let use_hop =
                  hop_at (Printf.sprintf "%s in %s" u.u_what u.u_fn) use_file
                    u.u_line
                in
                let rule =
                  if it.i_captured_in <> None then rule_dm2 else rule_dm1
                in
                let msg =
                  Printf.sprintf
                    "%s '%s'%s is mutable, written, and reachable from LP \
                     context via %s — move it into a per-LP/per-instance \
                     record, back it with Domain.DLS, or suppress with \
                     [@cdna.domain_shared \"reason\"]"
                    it.i_kind it.i_id
                    (match it.i_captured_in with
                    | Some f -> " (captured by " ^ f ^ ")"
                    | None -> "")
                    u.u_fn
                in
                viols :=
                  {
                    rule;
                    file = use_file;
                    line = u.u_line;
                    col = None;
                    msg;
                    chain = [ decl ] @ alias_hops @ witness @ [ use_hop ];
                    suppress =
                      (match it.i_suppress with
                      | Some r when r <> "" -> Some r
                      | _ -> None);
                  }
                  :: !viols
              end)
            lp_uses
        end
      end)
    roots;
  let violations, suppressed = finalize !viols in
  (* Items carrying a non-empty [@cdna.domain_shared] that classified
     Shared are accounted as suppressed above; one with an empty reason
     already produced its DS1. *)
  let class_counts = count_by (fun it -> cls_name it.i_class) roots in
  {
    cmt_files = core.files;
    functions = SMap.cardinal prog.fns;
    state_items = List.length roots;
    classes = class_counts;
    violations;
    suppressed;
    domain_local = prog.n_domain_local;
    domain_shared = prog.n_domain_shared;
  }

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let report_to_json r =
  Sim.Json.Obj
    [
      ("cmt_files", Sim.Json.Int r.cmt_files);
      ("functions", Sim.Json.Int r.functions);
      ("state_items", Sim.Json.Int r.state_items);
      ("classes", counts_json r.classes);
      ("violations", Sim.Json.Int (List.length r.violations));
      ("rules", rule_counts_json r.violations);
      ("suppressions", Sim.Json.Int (List.length r.suppressed));
      ("domain_local", Sim.Json.Int r.domain_local);
      ("domain_shared", Sim.Json.Int r.domain_shared);
    ]
