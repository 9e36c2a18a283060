module Is = Nd_util.Interval_set
module Dag = Nd_dag.Dag

type node_id = int

type kind = Drs.kind = Leaf of Strand.t | Seq | Par | Fire of string

type decomposition = {
  m : int;
  tasks : node_id array;
  task_of_node : int array;
  task_of_vertex : int array;
  n_glue : int;
}

type t = {
  tree : Spawn_tree.t;
  dag : Dag.t;
  drs : Drs.t;
  rewriting : Drs.rewrite;
  fire_edges : (node_id * node_id) list;
  begin_v : int array;
  end_v : int array;
  footprint : Is.t array;
  size : int array;
  work : int array;
  vertex_owner : int array;
  decomp_cache : (int, decomposition) Hashtbl.t;
  decomp_lock : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile ~registry tree =
  let drs = Drs.flatten ~registry tree in
  let rewriting = Drs.rewrite drs in
  let n = Drs.n_nodes drs in
  let dag = Dag.create () in
  let begin_v = Array.make n 0 and end_v = Array.make n 0 in
  let footprint = Array.make n Is.empty in
  let size = Array.make n 0 and work = Array.make n 0 in
  (* one vertex per event: a strand per leaf, a begin/end pair per Par
     and Fire *)
  let vertex_owner = Array.make (Array.length drs.ev_work) (-1) in
  let vertex id ~label ~work ~reads ~writes =
    let v = Dag.add_vertex dag ~label ~work ~reads ~writes () in
    vertex_owner.(v) <- id;
    v
  in
  let edge u v = Dag.add_edge dag u v in
  (* post-order: a node's children are laid out before it *)
  Array.iteri
    (fun id kind ->
      let cs = drs.children.(id) in
      (match kind with
      | Leaf s ->
        let v =
          vertex id ~label:s.Strand.label ~work:s.Strand.work
            ~reads:s.Strand.reads ~writes:s.Strand.writes
        in
        begin_v.(id) <- v;
        end_v.(id) <- v
      | Seq ->
        for i = 1 to Array.length cs - 1 do
          edge end_v.(cs.(i - 1)) begin_v.(cs.(i))
        done;
        begin_v.(id) <- begin_v.(cs.(0));
        end_v.(id) <- end_v.(cs.(Array.length cs - 1))
      | Par | Fire _ ->
        let b_label, e_label =
          match kind with
          | Fire r -> ("fire." ^ r ^ ".begin", "fire." ^ r ^ ".end")
          | _ -> ("par.begin", "par.end")
        in
        let sync label =
          vertex id ~label ~work:0 ~reads:Is.empty ~writes:Is.empty
        in
        begin_v.(id) <- sync b_label;
        end_v.(id) <- sync e_label;
        Array.iter
          (fun c ->
            edge begin_v.(id) begin_v.(c);
            edge end_v.(c) end_v.(id))
          cs);
      (match kind with
      | Leaf s ->
        footprint.(id) <- Strand.footprint s;
        work.(id) <- s.Strand.work
      | Seq | Par | Fire _ ->
        footprint.(id) <-
          Array.fold_left (fun acc c -> Is.union acc footprint.(c)) Is.empty cs;
        work.(id) <- Array.fold_left (fun acc c -> acc + work.(c)) 0 cs);
      size.(id) <- Is.cardinal footprint.(id))
    drs.kind;
  Drs.iter_pairs rewriting (fun a b -> edge end_v.(a) begin_v.(b));
  {
    tree;
    dag;
    drs;
    rewriting;
    fire_edges = Drs.pairs rewriting;
    begin_v;
    end_v;
    footprint;
    size;
    work;
    vertex_owner;
    decomp_cache = Hashtbl.create 16;
    decomp_lock = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let dag t = t.dag

let tree t = t.tree

let registry t = t.drs.registry

let skeleton t = t.drs

let rewriting t = t.rewriting

let n_nodes t = Drs.n_nodes t.drs

let root t = Drs.root t.drs

let check t n =
  if n < 0 || n >= n_nodes t then invalid_arg "Program: node id out of range"

let parent t n =
  check t n;
  t.drs.parent.(n)

let children t n =
  check t n;
  t.drs.children.(n)

let kind_of t n =
  check t n;
  t.drs.kind.(n)

let leaf_range t n =
  check t n;
  (t.drs.leaf_lo.(n), t.drs.leaf_hi.(n))

let n_leaves t = Array.length t.drs.leaf_nodes

let leaf_node t i = t.drs.leaf_nodes.(i)

let leaf_vertex t i = t.begin_v.(t.drs.leaf_nodes.(i))

let vertex_owner t v = t.vertex_owner.(v)

let fire_edges t = t.fire_edges

let begin_vertex t n =
  check t n;
  t.begin_v.(n)

let end_vertex t n =
  check t n;
  t.end_v.(n)

let footprint t n =
  check t n;
  t.footprint.(n)

let size t n =
  check t n;
  t.size.(n)

let work_of_node t n =
  check t n;
  t.work.(n)

(* ------------------------------------------------------------------ *)
(* M-maximal decomposition                                             *)
(* ------------------------------------------------------------------ *)

let decompose_uncached t ~m =
  let tasks = ref [] and n_tasks = ref 0 in
  let task_of_node = Array.make (n_nodes t) (-1) in
  let n_glue = ref 0 in
  let rec go n =
    let cs = t.drs.children.(n) in
    if t.size.(n) <= m || cs = [||] then begin
      let idx = !n_tasks in
      incr n_tasks;
      tasks := n :: !tasks;
      (* post-order: the subtree is the contiguous id range [first, n] *)
      for i = t.drs.first_node.(n) to n do
        task_of_node.(i) <- idx
      done
    end
    else begin
      incr n_glue;
      Array.iter go cs
    end
  in
  go (root t);
  let task_of_vertex =
    Array.map
      (fun owner -> if owner < 0 then -1 else task_of_node.(owner))
      t.vertex_owner
  in
  {
    m;
    tasks = Array.of_list (List.rev !tasks);
    task_of_node;
    task_of_vertex;
    n_glue = !n_glue;
  }

(* Memoized per program: sigma-sweeps and the Q*/Q-hat metrics query the
   same handful of [m] values over and over, and a decomposition is
   immutable once built.  The memo table is mutex-guarded (the analysis
   server shares one compiled program across pool domains); computing
   inside the lock doubles as single-flight, so a given [m] is
   decomposed exactly once per program no matter how many domains race
   on it.  The critical section is O(nodes) — negligible next to the
   simulations that consume the result. *)
let decompose t ~m =
  if m < 1 then invalid_arg "Program.decompose: m < 1";
  Mutex.protect t.decomp_lock (fun () ->
      match Hashtbl.find_opt t.decomp_cache m with
      | Some d -> d
      | None ->
        let d = decompose_uncached t ~m in
        Hashtbl.add t.decomp_cache m d;
        d)

let enclosing_task d n = d.task_of_node.(n)

let is_ancestor t a n =
  check t a;
  check t n;
  t.drs.first_node.(a) <= n && n <= a
