(* Program — the one analysis core under every lint pass ([cdna_lint],
   [cdna_flow], [cdna_dom], [cdna_proto]), all over [.cmt] typedtrees.

   [load] reads a compiled corpus once: cmt discovery, the compiler load
   path (so [cdna_dom] can rehydrate summarized environments), module
   aliases harvested from implementations ([module M = ..] and
   [let module M = .. in]) and dune's [.ml-gen] alias modules,
   [@@@cdna.layer] / [@@@cdna.privileged] scope attributes, each file's
   structure, and one table of toplevel bindings and functions. On top
   of that sit the call-edge resolver, the one diagnostic type with the
   violation [finalize] step every pass ends with, and [Fixpoint.Make],
   the one summary solver.

   The passes keep only their own rules and abstract domains; what lives
   here is exactly the code that must agree byte-for-byte across passes
   so that a chain rendered by one pass reads like a chain rendered by
   another and the combined stats artifact stays stable. *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)
module ISet = Set.Make (Int)
module IdentMap = Map.Make (Ident)

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

(* Report shapes, included by every pass so its violations read as
   [v.Cdna_flow.file] etc. *)
module Diag = struct
  type hop = { hop_what : string; hop_file : string; hop_line : int }

  type violation = {
    rule : string;
    file : string;
    line : int;
    col : int option; (* per-expression rules only *)
    msg : string;
    chain : hop list; (* source -> ... -> sink, oldest first *)
    suppress : string option; (* [Some reason] when suppressed *)
  }

  let violation_compare a b =
    let c = String.compare a.file b.file in
    if c <> 0 then c
    else
      let c = Int.compare a.line b.line in
      if c <> 0 then c
      else
        let c = Option.compare Int.compare a.col b.col in
        if c <> 0 then c
        else
          let c = String.compare a.rule b.rule in
          if c <> 0 then c else String.compare a.msg b.msg

  (* "1. what at file:line", one per hop. *)
  let chain_lines v =
    List.mapi
      (fun i h ->
        Printf.sprintf "%d. %s at %s:%d" (i + 1) h.hop_what h.hop_file
          h.hop_line)
      v.chain

  let violation_to_string v =
    String.concat "\n    "
      (Printf.sprintf "%s:%d:%s [%s] %s" v.file v.line
         (match v.col with Some c -> string_of_int c ^ ":" | None -> "")
         v.rule v.msg
      :: chain_lines v)
end

include Diag

let hop_at hop_what hop_file hop_line = { hop_what; hop_file; hop_line }

(* [--only RULE] filtering: accept either the full rule name or its
   prefix up to the first dash ("PR1" matches "PR1-leak-on-path"). *)
let rule_matches ~only rule =
  match only with
  | None -> true
  | Some o ->
      rule = o
      || String.length rule > String.length o
         && String.sub rule 0 (String.length o) = o
         && rule.[String.length o] = '-'

(* Every pass's last step: drop duplicates on (rule, site, msg),
   keeping the first in [vs]' order, sort deterministically and split
   into (unsuppressed, suppressed). *)
let finalize vs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun v ->
      let k = (v.rule, v.file, v.line, v.col, v.msg) in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    vs
  |> List.sort violation_compare
  |> List.partition (fun v -> v.suppress = None)

(* ------------------------------------------------------------------ *)
(* Name canonicalization                                               *)
(* ------------------------------------------------------------------ *)

(* "Nic__Dp" -> "Dp": strip the dune wrapping prefix. *)
let strip_wrap comp =
  let n = String.length comp in
  let rec scan i =
    if i + 1 >= n then comp
    else if comp.[i] = '_' && comp.[i + 1] = '_' then
      String.sub comp (i + 2) (n - i - 2)
    else scan (i + 1)
  in
  if n = 0 then comp else scan 0

(* "Stdlib.+." -> ["Stdlib"; "+."]: an operator name may contain dots. *)
let split_on_dot s =
  let rec go acc = function
    | c :: rest when c <> "" && String.contains "!$%&*+-/:<=>?@^|~" c.[0] ->
        List.rev (String.concat "." (c :: rest) :: acc)
    | c :: rest -> go (c :: acc) rest
    | [] -> List.rev acc
  in
  go [] (String.split_on_char '.' s)

(* Module aliases and functor instances harvested during loading:
   "H" -> "Hashtbl", "SSet" -> "Stdlib.Set". *)
let expand_alias aliases comps =
  let rec go fuel comps =
    if fuel = 0 then comps
    else
      match comps with
      | first :: rest -> (
          match SMap.find_opt first aliases with
          | Some target when target <> first ->
              go (fuel - 1) (split_on_dot target @ rest)
          | _ -> comps)
      | [] -> comps
  in
  go 5 comps

(* Canonical identifier: alias-expanded, wrap-stripped, reduced to its
   last two components so [Memory.Phys_mem.read], [Env.Phys_mem.read]
   and [Stdlib.Hashtbl.fold] normalize to stable keys. *)
let canon_of aliases name =
  let comps = split_on_dot name |> List.map strip_wrap in
  let comps =
    if List.length comps > 1 then expand_alias aliases comps else comps
  in
  let comps = List.map strip_wrap comps in
  match List.rev comps with
  | [] -> ""
  | [ x ] -> x
  | x :: m :: _ -> m ^ "." ^ x

let last_comp name =
  match List.rev (split_on_dot name) with [] -> "" | x :: _ -> x

(* ------------------------------------------------------------------ *)
(* Attribute and location helpers                                      *)
(* ------------------------------------------------------------------ *)

let attr_name (a : Parsetree.attribute) = a.Parsetree.attr_name.Location.txt

let attr_reason (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let find_attr name attrs =
  List.find_opt (fun a -> attr_name a = name) attrs

let has_attr name attrs = find_attr name attrs <> None

let loc_file (loc : Location.t) = loc.loc_start.Lexing.pos_fname
let loc_line (loc : Location.t) = loc.loc_start.Lexing.pos_lnum
let hop what loc = hop_at what (loc_file loc) (loc_line loc)

(* Whether [path] has the segments [dir] ("lib/nic") as a directory. *)
let path_has_dir path dir =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let needle = dir ^ "/" in
  let nl = String.length needle and pl = String.length path in
  let rec scan i =
    if i + nl > pl then false
    else if String.sub path i nl = needle then
      (* Match whole path segments only. *)
      i = 0 || path.[i - 1] = '/'
    else scan (i + 1)
  in
  scan 0

(* The source layer a file belongs to, from its path under lib/. *)
let layer_of_file file =
  List.find_map
    (fun (dir, layer) -> if path_has_dir file dir then Some layer else None)
    [
      ("lib/nic", "nic"); ("lib/guestos", "guestos"); ("lib/xen", "xen");
      ("lib/host", "host"); ("lib/memory", "memory"); ("lib/bus", "bus");
      ("lib/core", "core"); ("lib/ethernet", "ethernet");
      ("lib/workload", "workload"); ("lib/cdna", "cdna-ext");
      ("lib/sim", "sim"); ("lib/experiments", "experiments");
    ]
  |> Option.value ~default:""

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

exception Load_error of { file : string; reason : string }

(* One structure (file or submodule) and its floating attributes. *)
type scope = {
  s_module : string;
  s_file : string;
  s_attrs : Parsetree.attribute list;
}

(* A toplevel [let x = ..] (or [let x : t = ..]) binding, with the layer
   and privilege level its enclosing scopes give it. *)
type binding = {
  b_id : string; (* "Mod.name" *)
  b_scope : scope;
  b_layer : string;
  b_privileged : bool;
  b_vb : Typedtree.value_binding;
}

(* A toplevel [let f = fun ..] binding with its parameters peeled. *)
type fn = {
  f_id : string;
  f_module : string;
  f_file : string;
  f_line : int;
  f_layer : string;
  f_privileged : bool;
  f_attrs : Parsetree.attribute list;
  f_params : (string option * Typedtree.pattern) list;
  f_body : Typedtree.expression;
}

type t = {
  files : int; (* implementation .cmt files, alias modules excluded *)
  units : (string * Typedtree.structure) list; (* source file, sorted *)
  aliases : string SMap.t;
  scopes : scope list; (* collection order *)
  bindings : binding list; (* collection order *)
  fns : fn SMap.t; (* a later binding of the same id wins *)
}

(* Every file under [path] (a file or directory) ending in [suffix]. *)
let rec collect_files suffix acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc e -> collect_files suffix acc (Filename.concat path e))
         acc
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let collect_cmts = collect_files ".cmt"

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

(* [fun ~a b -> body] -> ([(Some "a", pa); (None, pb)], body) *)
let rec peel_params (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function
      { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
      let params, body = peel_params c_rhs in
      ((label_name arg_label, c_lhs) :: params, body)
  | _ -> ([], e)

(* The alias target recorded for [module M = <mexpr>], if any:
   [module L = List] yields "List"; [module S = Set.Make (O)] resolves
   against the functor's parent module ("Set"), which is where the API
   semantics live. *)
let module_alias_target (me : Typedtree.module_expr) =
  let rec functor_path (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some (Path.name p)
    | Typedtree.Tmod_apply (f, _, _) -> functor_path f
    | Typedtree.Tmod_constraint (m, _, _, _) -> functor_path m
    | _ -> None
  in
  let unwrap name = List.map strip_wrap (split_on_dot name) in
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) ->
      Some (String.concat "." (unwrap (Path.name p)))
  | Typedtree.Tmod_apply (f, _, _) -> (
      match Option.map (fun p -> List.rev (unwrap p)) (functor_path f) with
      | Some (_make :: parent) -> Some (String.concat "." (List.rev parent))
      | _ -> None)
  | _ -> None

(* [let x = ..] and [let x : t = ..] bind through different pattern
   constructors. *)
let pat_var (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, { txt; _ }) -> Some (id, txt)
  | Typedtree.Tpat_alias ({ pat_desc = Typedtree.Tpat_any; _ }, id, { txt; _ })
    ->
      Some (id, txt)
  | _ -> None

(* A structure's floating attributes. *)
let floating_attrs (str : Typedtree.structure) =
  List.filter_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_attribute a -> Some a
      | _ -> None)
    str.str_items

(* The layer and privilege level a structure's floating attributes give
   everything in it, submodules included, on top of the enclosing
   scope's. *)
let refine_scope (layer, privileged) attrs =
  List.fold_left
    (fun (layer, privileged) a ->
      match attr_name a with
      | "cdna.privileged" -> (layer, true)
      | "cdna.layer" ->
          (Option.value (attr_reason a) ~default:layer, privileged)
      | _ -> (layer, privileged))
    (layer, privileged) attrs

type collected = {
  mutable n_files : int;
  mutable units_rev : (string * Typedtree.structure) list;
  mutable b_aliases : string SMap.t;
  mutable b_scopes : scope list; (* newest first *)
  mutable b_bindings : binding list; (* newest first *)
}

let rec collect_module st ~modname ~file ~layer ~privileged
    (str : Typedtree.structure) =
  let attrs = floating_attrs str in
  let scope = { s_module = modname; s_file = file; s_attrs = attrs } in
  st.b_scopes <- scope :: st.b_scopes;
  let layer, privileged = refine_scope (layer, privileged) attrs in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match pat_var vb.vb_pat with
              | Some (_, name) ->
                  st.b_bindings <-
                    {
                      b_id = modname ^ "." ^ name;
                      b_scope = scope;
                      b_layer = layer;
                      b_privileged = privileged;
                      b_vb = vb;
                    }
                    :: st.b_bindings
              | None -> ())
            vbs
      | Typedtree.Tstr_module mb ->
          collect_module_binding st ~file ~layer ~privileged mb
      | Typedtree.Tstr_recmodule mbs ->
          List.iter (collect_module_binding st ~file ~layer ~privileged) mbs
      | _ -> ())
    str.str_items

and collect_module_binding st ~file ~layer ~privileged
    (mb : Typedtree.module_binding) =
  let name =
    match mb.mb_id with
    | Some id -> Ident.name id
    | None -> Option.value mb.mb_name.txt ~default:"_"
  in
  let rec of_mexpr (me : Typedtree.module_expr) =
    match module_alias_target me with
    | Some target -> st.b_aliases <- SMap.add name target st.b_aliases
    | None -> (
        match me.mod_desc with
        | Typedtree.Tmod_structure s ->
            collect_module st ~modname:name ~file ~layer ~privileged s
        | Typedtree.Tmod_constraint (m, _, _, _) -> of_mexpr m
        | _ -> ())
  in
  of_mexpr mb.mb_expr

let read_cmt path =
  match Cmt_format.read_cmt path with
  | cmt -> cmt
  | exception e ->
      let reason =
        match e with
        | End_of_file -> "truncated file"
        | Sys_error m | Failure m -> m
        | Cmt_format.Error (Not_a_typedtree _) ->
            "truncated or corrupt typedtree"
        | Cmi_format.Error _ -> "not a .cmt file of this compiler"
        | e -> Printexc.to_string e
      in
      raise (Load_error { file = path; reason })

(* Whether a binding is in the function view: [let f = fun ..]. *)
let is_fn b =
  match (b.b_vb.vb_pat.pat_desc, b.b_vb.vb_expr.exp_desc) with
  | Typedtree.Tpat_var _, Typedtree.Texp_function _ -> true
  | _ -> false

(* Load exactly [paths]; the result does not depend on their order. *)
let load_paths paths =
  let paths = List.sort_uniq String.compare paths in
  (* Envs stored in cmt files are summaries; rehydrating them loads .cmi
     files, so the load path must cover the cmt dirs and the stdlib. *)
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.sort_uniq String.compare (List.map Filename.dirname paths)
    @ [ Config.standard_library ]);
  let st =
    {
      n_files = 0;
      units_rev = [];
      b_aliases = SMap.empty;
      b_scopes = [];
      b_bindings = [];
    }
  in
  (* [let module M = <alias> in ..] anywhere in a body. *)
  let let_module_aliases =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Typedtree.Texp_letmodule (Some id, _, _, me, _) ->
              Option.iter
                (fun target ->
                  st.b_aliases <- SMap.add (Ident.name id) target st.b_aliases)
                (module_alias_target me)
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  List.iter
    (fun path ->
      let cmt = read_cmt path in
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src
        when not (Filename.check_suffix src ".ml-gen") ->
          st.n_files <- st.n_files + 1;
          st.units_rev <- (src, str) :: st.units_rev;
          let_module_aliases.structure let_module_aliases str;
          collect_module st ~modname:(strip_wrap cmt.cmt_modname) ~file:src
            ~layer:(layer_of_file src) ~privileged:false str
      | Cmt_format.Implementation str, Some _ ->
          (* dune alias modules: harvest [module X = Lib__X] only. *)
          List.iter
            (fun (item : Typedtree.structure_item) ->
              match item.str_desc with
              | Typedtree.Tstr_module mb ->
                  collect_module_binding st ~file:"" ~layer:"" ~privileged:false
                    mb
              | _ -> ())
            str.str_items
      | _ -> ())
    paths;
  let bindings = List.rev st.b_bindings in
  let fns =
    List.fold_left
      (fun fns b ->
        if not (is_fn b) then fns
        else
          let params, body = peel_params b.b_vb.vb_expr in
          SMap.add b.b_id
            {
              f_id = b.b_id;
              f_module = b.b_scope.s_module;
              f_file = b.b_scope.s_file;
              f_line = loc_line b.b_vb.vb_loc;
              f_layer = b.b_layer;
              f_privileged = b.b_privileged;
              f_attrs = b.b_vb.vb_attributes;
              f_params = params;
              f_body = body;
            }
            fns)
      SMap.empty bindings
  in
  {
    files = st.n_files;
    units = List.rev st.units_rev;
    aliases = st.b_aliases;
    scopes = List.rev st.b_scopes;
    bindings;
    fns;
  }

let load root =
  if not (Sys.file_exists root) then
    raise (Load_error { file = root; reason = "no such cmt directory" });
  load_paths (collect_cmts [] root)

(* Apply [f] to the direct subexpressions of [e], left to right. *)
let iter_children f (e : Typedtree.expression) =
  Tast_iterator.default_iterator.expr
    { Tast_iterator.default_iterator with expr = (fun _ sub -> f sub) }
    e

(* Apply [f] to [e] and to every expression nested in it, outermost
   first. *)
let rec iter_exprs f (e : Typedtree.expression) =
  f e;
  iter_children (iter_exprs f) e

(* Where a sub-pattern sits inside the value its pattern matches. *)
type part = Elem of int | Field of string | Payload | Cell | Exn

(* Bind every variable of [p] to the part of [v] it matches, as the
   pass's [part] projects it; aliases, or-patterns and lazy patterns see
   the whole value. *)
let rec bind_pat : type k v.
    part:(part -> v -> v) -> v IdentMap.t -> k Typedtree.general_pattern ->
    v -> v IdentMap.t =
 fun ~part env p v ->
  let sub env p' at = bind_pat ~part env p' (part at v) in
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> IdentMap.add id v env
  | Typedtree.Tpat_alias (p', id, _) ->
      bind_pat ~part (IdentMap.add id v env) p' v
  | Typedtree.Tpat_tuple ps ->
      List.fold_left (fun env (i, p') -> sub env p' (Elem i)) env
        (List.mapi (fun i p' -> (i, p')) ps)
  | Typedtree.Tpat_record (fields, _) ->
      List.fold_left
        (fun env (_, (ld : Types.label_description), p') ->
          sub env p' (Field ld.lbl_name))
        env fields
  | Typedtree.Tpat_construct (_, _, ps, _) ->
      List.fold_left (fun env p' -> sub env p' Payload) env ps
  | Typedtree.Tpat_variant (_, Some p', _) -> sub env p' Payload
  | Typedtree.Tpat_variant (_, None, _) -> env
  | Typedtree.Tpat_array ps ->
      List.fold_left (fun env p' -> sub env p' Cell) env ps
  | Typedtree.Tpat_lazy p' -> bind_pat ~part env p' v
  | Typedtree.Tpat_or (a, b, _) -> bind_pat ~part (bind_pat ~part env a v) b v
  | Typedtree.Tpat_value arg ->
      bind_pat ~part env (arg :> Typedtree.value Typedtree.general_pattern) v
  | Typedtree.Tpat_exception p' -> sub env p' Exn
  | Typedtree.Tpat_any | Typedtree.Tpat_constant _ -> env

(* ------------------------------------------------------------------ *)
(* Call-edge resolution                                                *)
(* ------------------------------------------------------------------ *)

(* The canonical name an identifier expression refers to. *)
let ident_name t (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some (canon_of t.aliases (Path.name p))
  | _ -> None

(* Intra-module references are bare [Pident]s: qualify [name] with
   [modname] when [mem] knows the qualified id and not the bare one. *)
let qualify ~mem ~modname name =
  if mem name || String.contains name '.' then name
  else
    let q = modname ^ "." ^ name in
    if mem q then q else name

let find_qualified tbl ~modname name =
  SMap.find_opt (qualify ~mem:(fun k -> SMap.mem k tbl) ~modname name) tbl

let find_fn t ~modname name = find_qualified t.fns ~modname name

(* ------------------------------------------------------------------ *)
(* Summary fixpoint                                                    *)
(* ------------------------------------------------------------------ *)

(* Rounds after which a summary fixpoint that still changes is declared
   divergent. Every lattice here has finite height, so reaching it
   means a lattice bug, never a large program. *)
let max_rounds = 20

exception Not_converged of { rounds : int }

module type LATTICE = sig
  type t

  val bottom : t

  (* [join old fresh]. Chains (witness paths) are not part of the
     abstract value: join keeps one chain per key (the first found, or
     the shortest), so a recursive call cannot grow a summary lap after
     lap. *)
  val join : t -> t -> t

  (* Compares abstract values only, never chains. *)
  val equal : t -> t -> bool
end

module Fixpoint = struct
  module Make (L : LATTICE) = struct
    (* Solve [value id = join (value id) (step read id)] over [ids].
       Worklist in sorted-id order (Gauss-Seidel): a change re-queues
       every function whose last evaluation [read] it — later ids in
       the same round, earlier ones (and itself) in the next. Returns
       the solution and the number of rounds; raises [Not_converged]
       past [max_rounds]. *)
    let solve ids step =
      let value = Hashtbl.create 256 and readers = Hashtbl.create 256 in
      let get id = Option.value (Hashtbl.find_opt value id) ~default:L.bottom in
      let readers_of id =
        Option.value (Hashtbl.find_opt readers id) ~default:SSet.empty
      in
      let rec visit cur next =
        match SSet.min_elt_opt cur with
        | None -> next
        | Some id ->
            let cur = SSet.remove id cur in
            let read dep =
              Hashtbl.replace readers dep (SSet.add id (readers_of dep));
              get dep
            in
            let old = get id in
            let v = L.join old (step read id) in
            if L.equal old v then visit cur next
            else begin
              Hashtbl.replace value id v;
              let later, again =
                SSet.partition
                  (fun r -> String.compare r id > 0)
                  (readers_of id)
              in
              visit (SSet.union cur later) (SSet.union next again)
            end
      in
      let rec round n pending =
        if SSet.is_empty pending then n - 1
        else if n > max_rounds then
          raise (Not_converged { rounds = max_rounds })
        else round (n + 1) (visit pending SSet.empty)
      in
      let rounds = round 1 (SSet.of_list ids) in
      (get, rounds)
  end
end

(* The one-line reason main.exe prints before exiting 2 when a run
   cannot be trusted: the corpus did not load or a fixpoint diverged. *)
let failure_message = function
  | Load_error { file; reason } ->
      Some (Printf.sprintf "cannot load %s: %s" file reason)
  | Not_converged { rounds } ->
      Some
        (Printf.sprintf "summary fixpoint did not converge in %d rounds" rounds)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let hop_to_json h =
  Sim.Json.Obj
    [
      ("what", Sim.Json.String h.hop_what);
      ("file", Sim.Json.String h.hop_file);
      ("line", Sim.Json.Int h.hop_line);
    ]

let violation_to_json v =
  Sim.Json.Obj
    ([ ("file", Sim.Json.String v.file); ("line", Sim.Json.Int v.line) ]
    @ (match v.col with Some c -> [ ("col", Sim.Json.Int c) ] | None -> [])
    @ [
       ("rule", Sim.Json.String v.rule);
       ("msg", Sim.Json.String v.msg);
       ("chain", Sim.Json.List (List.map hop_to_json v.chain));
     ]
    @
    match v.suppress with
    | Some r -> [ ("suppressed", Sim.Json.String r) ]
    | None -> [])

(* Occurrences per key, sorted by key. *)
let count_by key xs =
  List.fold_left
    (fun m x ->
      SMap.update (key x) (fun n -> Some (1 + Option.value n ~default:0)) m)
    SMap.empty xs
  |> SMap.bindings

let counts_json counts =
  Sim.Json.Obj (List.map (fun (k, n) -> (k, Sim.Json.Int n)) counts)

let rule_counts_json vs = counts_json (count_by (fun v -> v.rule) vs)
