(* Call resolution over the per-file summaries: maps a raw dotted call
   path recorded by Summary to the [Summary.fn] it names, using only
   what the syntax gives us — file-as-module naming, top-level
   [module A = B] aliases, and top-level [open]s.

   Resolution strategy, in order:

   - ["f"] (unqualified): a top-level binding in the same file wins;
     otherwise the file's [open]s are tried newest-first (later opens
     shadow earlier ones).
   - ["M"; ...; "f"] (qualified): a nested module defined in the same
     file ([module M = struct let f ... end]) wins; otherwise the
     *last* module segment is alias-expanded through the caller's
     [module A = B] bindings and looked up as a file module. The
     last-segment strategy makes umbrella re-exports
     ([Sinfonia.Memnode.f]) resolve to the real memnode.ml without
     needing to model signatures.
   - When two files claim the same module name (core/config.ml vs
     sinfonia/config.ml), a file in the caller's own directory wins;
     an ambiguous cross-directory reference stays unresolved rather
     than guessing.

   Unresolved calls contribute no facts — the analysis under-, never
   over-approximates through the call graph (DESIGN.md Sec. 17 lists
   the blind spots this buys). *)

type t = {
  files : Summary.file list;  (* rel-sorted *)
  fn_tbl : (string, Summary.fn) Hashtbl.t;  (* fn_id -> fn *)
  by_module : (string, Summary.file list) Hashtbl.t;
  (* per file: local dotted name -> fn_id, e.g. "prepare" / "M.f" *)
  locals : (string, (string, string) Hashtbl.t) Hashtbl.t;
}

let build (files : Summary.file list) =
  let files =
    List.sort (fun a b -> compare a.Summary.f_rel b.Summary.f_rel) files
  in
  let fn_tbl = Hashtbl.create 256 in
  let by_module = Hashtbl.create 64 in
  let locals = Hashtbl.create 64 in
  List.iter
    (fun (f : Summary.file) ->
      let local = Hashtbl.create 16 in
      List.iter
        (fun (fn : Summary.fn) ->
          Hashtbl.replace fn_tbl fn.fn_id fn;
          (* later bindings shadow earlier ones, as in the language *)
          Hashtbl.replace local fn.fn_local fn.fn_id)
        f.f_fns;
      Hashtbl.replace locals f.f_rel local;
      let prev = Option.value (Hashtbl.find_opt by_module f.f_module) ~default:[] in
      Hashtbl.replace by_module f.f_module (prev @ [ f ]))
    files;
  { files; fn_tbl; by_module; locals }

let fn t id = Hashtbl.find_opt t.fn_tbl id

(* Expand [module A = B] one step at a time; the bound keeps alias
   cycles ([module A = B] + [module B = A]) from looping. *)
let expand_alias (file : Summary.file) m =
  let rec go m depth =
    if depth = 0 then m
    else
      match List.assoc_opt m file.f_aliases with
      | Some m' -> go m' (depth - 1)
      | None -> m
  in
  go m 4

let local_fn t rel name =
  match Hashtbl.find_opt t.locals rel with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl name

(* The file that module name [m] denotes, seen from [dir]: same
   directory first, then a unique global match. *)
let file_of_module t ~dir m =
  match Hashtbl.find_opt t.by_module m with
  | None -> None
  | Some [ f ] -> Some f
  | Some fs -> List.find_opt (fun (f : Summary.file) -> f.f_dir = dir) fs

let resolve t (file : Summary.file) (call : Summary.call) =
  match List.rev call.c_segs with
  | [] -> None
  | [ name ] -> (
      match local_fn t file.f_rel name with
      | Some id -> Some id
      | None ->
          List.find_map
            (fun o ->
              let m = expand_alias file o in
              match file_of_module t ~dir:file.f_dir m with
              | Some target -> local_fn t target.f_rel name
              | None -> None)
            (List.rev file.f_opens))
  | name :: rev_mods -> (
      let nested = String.concat "." (List.rev (name :: rev_mods)) in
      match local_fn t file.f_rel nested with
      | Some id -> Some id
      | None -> (
          (* last module segment is [hd rev_mods] by construction *)
          let m = expand_alias file (List.hd rev_mods) in
          match file_of_module t ~dir:file.f_dir m with
          | Some target -> local_fn t target.f_rel name
          | None -> None))

(* Resolved edges of one function, in event order (duplicates kept:
   sequence splicing needs every call site). *)
let edges t (file : Summary.file) (fn : Summary.fn) =
  List.filter_map
    (fun c ->
      match resolve t file c with Some id -> Some (c, id) | None -> None)
    (Summary.calls_of fn)
