module Is = Nd_util.Interval_set
module Json = Nd_util.Json
module Drs = Nd.Drs
module Program = Nd.Program
module Strand = Nd.Strand
module Pmh = Nd_pmh.Pmh
module Sb = Nd_sched.Sb_sched

(* Hash-consed translation-normalized subtree shapes.  Two nodes share a
   shape iff their subtrees are exact translates of each other (same
   structure, works and rule names; footprints shifted by one global
   offset).  Work, footprint cardinality, peak footprint and the Q*
   recurrence are all translation-invariant, so they are stored once per
   shape; regular divide-and-conquer trees collapse to O(depth) shapes. *)
type shape = {
  s_children : int array;  (* child shape ids; [||] for leaves *)
  s_fp : Is.t;  (* footprint shifted so its minimum address is 0 *)
  s_size : int;
  s_work : int;
  s_peak : int;
}

type shape_key =
  | KLeaf of int * (int * int) list * (int * int) list
      (* work, normalized read / write intervals *)
  | KNode of int * string * (int * int) list
      (* construct tag, rule name, per-child (shape id, footprint offset) *)

(* The generic [Hashtbl.hash] inspects a bounded prefix of the key, so
   wide nodes whose child lists share a long prefix (e.g. the diagonal
   [Seq] rows of a DP sweep) all collide and interning degrades to
   quadratic list comparisons.  Fold the whole key instead — child
   entries are ints, so a full-depth hash is cheap. *)
module Shape_key = struct
  type t = shape_key

  let equal (a : t) b = a = b

  let fold_pairs = List.fold_left (fun h (a, b) -> ((h * 31) + a) * 31 + b)

  let hash = function
    | KLeaf (w, rs, ws) -> fold_pairs (fold_pairs ((w * 31) + 1) rs) ws
    | KNode (tag, rule, ds) ->
      fold_pairs ((tag * 31) + Hashtbl.hash rule) ds
end

module Shape_tbl = Hashtbl.Make (Shape_key)

type report = {
  work : int;
  span : int;
  parallelism : float;
  peak_footprint : int;
  root_size : int;
  n_leaves : int;
  n_nodes : int;
  n_fire_edges : int;
  n_shapes : int;
}

type t = {
  shapes : shape array;
  root_shape : int;
  qmemo : (int * int, int) Hashtbl.t;  (* (shape id, m) -> Q* *)
  report : report;
}

let dummy_shape =
  { s_children = [||]; s_fp = Is.empty; s_size = 0; s_work = 0; s_peak = 0 }

(* Work, footprint, peak and Q* come from the shapes; span and the fire
   edge count from the DRS skeleton and rewriting. *)
let of_drs (drs : Drs.t) rw =
  let n_nodes = Drs.n_nodes drs in
  let shape_ids : int Shape_tbl.t = Shape_tbl.create 256 in
  (* at most one shape per node *)
  let shapes = Array.make n_nodes dummy_shape in
  let n_shapes = ref 0 in
  let intern key mk =
    match Shape_tbl.find_opt shape_ids key with
    | Some id -> id
    | None ->
      let id = !n_shapes in
      shapes.(id) <- mk ();
      incr n_shapes;
      Shape_tbl.add shape_ids key id;
      id
  in
  let node_shape = Array.make n_nodes (-1) in
  let node_min = Array.make n_nodes 0 in
  (* post-order ids: children are interned before their parent *)
  Array.iteri
    (fun id kind ->
      let children = drs.children.(id) in
      match kind with
      | Drs.Leaf s ->
        let fp = Strand.footprint s in
        let mn =
          match Is.intervals fp with [] -> 0 | (lo, _) :: _ -> lo
        in
        let key =
          KLeaf
            ( s.Strand.work,
              Is.intervals (Is.shift s.Strand.reads (-mn)),
              Is.intervals (Is.shift s.Strand.writes (-mn)) )
        in
        node_min.(id) <- mn;
        node_shape.(id) <-
          intern key (fun () ->
              let nfp = Is.shift fp (-mn) in
              let size = Is.cardinal nfp in
              { s_children = [||]; s_fp = nfp; s_size = size;
                s_work = s.Strand.work; s_peak = size })
      | Drs.Seq | Drs.Par | Drs.Fire _ ->
        let mn =
          Array.fold_left
            (fun acc c ->
              if Is.is_empty shapes.(node_shape.(c)).s_fp then acc
              else
                match acc with
                | None -> Some node_min.(c)
                | Some m -> Some (min m node_min.(c)))
            None children
        in
        let mn = match mn with None -> 0 | Some m -> m in
        let deltas =
          Array.to_list
            (Array.map
               (fun c ->
                 let s = node_shape.(c) in
                 if Is.is_empty shapes.(s).s_fp then (s, 0)
                 else (s, node_min.(c) - mn))
               children)
        in
        (* a Seq's children are live one at a time, a Par's or Fire's
           all at once *)
        let tag, rule, peak_of =
          match kind with
          | Drs.Seq -> (0, "", Int.max)
          | Drs.Par -> (1, "", ( + ))
          | Drs.Fire r -> (2, r, ( + ))
          | Drs.Leaf _ -> assert false
        in
        node_min.(id) <- mn;
        node_shape.(id) <-
          intern (KNode (tag, rule, deltas)) (fun () ->
              let fp =
                List.fold_left
                  (fun acc (s, d) -> Is.union acc (Is.shift shapes.(s).s_fp d))
                  Is.empty deltas
              in
              let sum f =
                List.fold_left (fun acc (s, _) -> acc + f shapes.(s)) 0 deltas
              in
              let peak =
                List.fold_left
                  (fun acc (s, _) -> peak_of acc shapes.(s).s_peak)
                  0 deltas
              in
              { s_children = Array.map (fun c -> node_shape.(c)) children;
                s_fp = fp; s_size = Is.cardinal fp;
                s_work = sum (fun s -> s.s_work); s_peak = peak }))
    drs.kind;
  let root_shape = node_shape.(Drs.root drs) in
  let root = shapes.(root_shape) in
  let work = root.s_work and span = Drs.span drs rw in
  {
    shapes = Array.sub shapes 0 !n_shapes;
    root_shape;
    qmemo = Hashtbl.create 64;
    report =
      {
        work;
        span;
        parallelism =
          (if span = 0 then 0. else float_of_int work /. float_of_int span);
        peak_footprint = root.s_peak;
        root_size = root.s_size;
        n_leaves = Array.length drs.leaf_nodes;
        n_nodes;
        n_fire_edges = Drs.n_pairs rw;
        n_shapes = !n_shapes;
      };
  }

let analyze ~registry tree =
  let drs = Drs.flatten ~registry tree in
  of_drs drs (Drs.rewrite drs)

let of_program p = of_drs (Program.skeleton p) (Program.rewriting p)

let report t = t.report

let work t = t.report.work

let span t = t.report.span

let peak_footprint t = t.report.peak_footprint

let root_size t = t.report.root_size

(* Mirrors Program.decompose + Pcc.q_star: a node whose size fits in m
   (or a leaf) is a maximal task contributing its size; otherwise it is a
   glue node contributing 1 plus its children's totals.  Both the
   predicate and the contributions depend only on the shape. *)
let q_star t ~m =
  if m < 1 then invalid_arg "Cost.q_star: m < 1";
  let rec go s =
    match Hashtbl.find_opt t.qmemo (s, m) with
    | Some q -> q
    | None ->
      let sh = t.shapes.(s) in
      let q =
        if sh.s_size <= m || sh.s_children = [||] then sh.s_size
        else
          1 + Array.fold_left (fun acc c -> acc + go c) 0 sh.s_children
      in
      Hashtbl.add t.qmemo (s, m) q;
      q
  in
  go t.root_shape

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>work        %d@,span        %d@,parallelism %.2f@,\
     peak fp     %d@,root size   %d@,leaves      %d@,nodes       %d@,\
     fire edges  %d@,shapes      %d@]"
    r.work r.span r.parallelism r.peak_footprint r.root_size r.n_leaves
    r.n_nodes r.n_fire_edges r.n_shapes

let report_to_json r =
  Json.Obj
    [
      ("work", Json.Int r.work);
      ("span", Json.Int r.span);
      ("parallelism", Json.Float r.parallelism);
      ("peak_footprint", Json.Int r.peak_footprint);
      ("root_size", Json.Int r.root_size);
      ("n_leaves", Json.Int r.n_leaves);
      ("n_nodes", Json.Int r.n_nodes);
      ("n_fire_edges", Json.Int r.n_fire_edges);
      ("n_shapes", Json.Int r.n_shapes);
    ]

(* ------------------------------------------------------------------ *)
(* Theorem 1 certification                                             *)
(* ------------------------------------------------------------------ *)

type level_check = { level : int; m : int; misses : int; bound : int }

type certification = {
  sigma : float;
  levels : level_check list;
  certified : bool;
}

let certify_theorem1 ?(sigma = 1. /. 3.) program machine =
  let cost = of_program program in
  let stats = Sb.run ~sigma ~accounting:Sb.Rho program machine in
  let levels =
    List.init (Pmh.n_levels machine) (fun j ->
        let level = j + 1 in
        let m =
          max 1 (int_of_float (sigma *. float_of_int (Pmh.size machine ~level)))
        in
        { level; m; misses = stats.Sb.misses.(j); bound = q_star cost ~m })
  in
  {
    sigma;
    levels;
    certified = List.for_all (fun l -> l.misses <= l.bound) levels;
  }

let certification_to_json c =
  Json.Obj
    [
      ("sigma", Json.Float c.sigma);
      ("certified", Json.Bool c.certified);
      ( "levels",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("level", Json.Int l.level);
                   ("m", Json.Int l.m);
                   ("misses", Json.Int l.misses);
                   ("q_star_bound", Json.Int l.bound);
                 ])
             c.levels) );
    ]

let pp_certification ppf c =
  Format.fprintf ppf "@[<v>Theorem 1 (sigma=%.2f): %s@," c.sigma
    (if c.certified then "certified" else "VIOLATED");
  List.iter
    (fun l ->
      Format.fprintf ppf "  level %d: misses %d %s Q*(%d) = %d@," l.level
        l.misses
        (if l.misses <= l.bound then "<=" else ">")
        l.m l.bound)
    c.levels;
  Format.fprintf ppf "@]"
