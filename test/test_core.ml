module Is = Nd_util.Interval_set
module Dag = Nd_dag.Dag
open Nd

let strand ?(work = 1) ?(reads = Is.empty) ?(writes = Is.empty) label =
  Spawn_tree.leaf (Strand.make ~label ~work ~reads ~writes ())

(* ---------------------------- pedigree ---------------------------- *)

let test_pedigree () =
  let p = Pedigree.of_list [ 2; 1 ] in
  Alcotest.(check string) "to_string" "<2.1>" (Pedigree.to_string p);
  Alcotest.(check string) "empty" "<>" (Pedigree.to_string Pedigree.empty);
  Alcotest.(check (list int)) "append" [ 2; 1; 3 ]
    (Pedigree.to_list (Pedigree.append p (Pedigree.of_list [ 3 ])));
  Alcotest.(check bool) "equal" true (Pedigree.equal p (Pedigree.of_list [ 2; 1 ]));
  Alcotest.check_raises "0-step rejected"
    (Invalid_argument "Pedigree.of_list: steps are 1-based") (fun () ->
      ignore (Pedigree.of_list [ 0 ]))

(* ---------------------------- strands ----------------------------- *)

let test_strand () =
  let s =
    Strand.make ~label:"s" ~work:3 ~reads:(Is.interval 0 4)
      ~writes:(Is.interval 2 6) ()
  in
  Alcotest.(check int) "size" 6 (Strand.size s);
  Alcotest.(check int) "nop work" 0 (Strand.nop "z").Strand.work;
  Alcotest.check_raises "negative work"
    (Invalid_argument "Strand.make: negative work") (fun () ->
      ignore (Strand.make ~label:"bad" ~work:(-1) ~reads:Is.empty ~writes:Is.empty ()))

(* --------------------------- spawn trees -------------------------- *)

let test_tree_shape () =
  let t = Spawn_tree.seq [ strand "a"; Spawn_tree.par [ strand "b"; strand "c" ] ] in
  Alcotest.(check int) "leaves" 3 (Spawn_tree.n_leaves t);
  Alcotest.(check int) "depth" 3 (Spawn_tree.depth t);
  Alcotest.(check int) "work" 3 (Spawn_tree.work t);
  (* singleton flattening *)
  (match Spawn_tree.seq [ strand "only" ] with
  | Spawn_tree.Leaf _ -> ()
  | _ -> Alcotest.fail "singleton seq not flattened");
  Alcotest.check_raises "empty seq" (Invalid_argument "Spawn_tree.seq: empty")
    (fun () -> ignore (Spawn_tree.seq []))

let test_tree_child_resolve () =
  let f = Spawn_tree.fire ~rule:"R" (strand "x") (strand "y") in
  (match Spawn_tree.child f 1 with
  | Spawn_tree.Leaf s -> Alcotest.(check string) "fire child 1" "x" s.Strand.label
  | _ -> Alcotest.fail "bad child");
  (match Spawn_tree.child f 2 with
  | Spawn_tree.Leaf s -> Alcotest.(check string) "fire child 2" "y" s.Strand.label
  | _ -> Alcotest.fail "bad child");
  (* pedigree resolution on the flattened tree: node ids are post-order,
     so x = 0, y = 1 and the fire node is the root, 2 *)
  let reg = Fire_rule.define Fire_rule.empty_registry "R" [] in
  let drs = Drs.flatten ~registry:reg f in
  let resolution =
    Alcotest.testable
      (fun ppf r ->
        Format.pp_print_string ppf
          (match r with
          | Drs.Clean -> "clean"
          | Drs.Bottomed -> "bottomed"
          | Drs.Mismatch -> "mismatch"))
      ( = )
  in
  let check_resolve what steps (node, outcome) =
    let n, o = Drs.resolve drs (Drs.root drs) (Pedigree.of_list steps) in
    Alcotest.(check int) (what ^ ": node") node n;
    Alcotest.check resolution (what ^ ": outcome") outcome o
  in
  check_resolve "stops at leaf" [ 1; 5; 7 ] (0, Drs.Bottomed);
  check_resolve "clean" [ 2 ] (1, Drs.Clean);
  check_resolve "empty" [] (2, Drs.Clean);
  check_resolve "no such child" [ 3 ] (2, Drs.Mismatch)

let test_projections () =
  let t = Spawn_tree.fire ~rule:"R" (strand "a") (strand "b") in
  (match Spawn_tree.serialize_fires t with
  | Spawn_tree.Seq [ _; _ ] -> ()
  | _ -> Alcotest.fail "serialize");
  (match Spawn_tree.parallelize_fires t with
  | Spawn_tree.Par [ _; _ ] -> ()
  | _ -> Alcotest.fail "parallelize");
  Alcotest.(check (list string)) "fire types" [ "R" ] (Spawn_tree.fire_types t)

(* --------------------------- fire rules --------------------------- *)

let test_registry () =
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  Alcotest.(check int) "one rule" 1 (List.length (Fire_rule.find reg "R"));
  Alcotest.(check bool) "mem" true (Fire_rule.mem reg "R");
  Alcotest.(check bool) "not mem" false (Fire_rule.mem reg "S");
  (match Fire_rule.find reg "S" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  Alcotest.check_raises "redefine"
    (Invalid_argument "Fire_rule.define: \"R\" already defined") (fun () ->
      ignore (Fire_rule.define reg "R" []))

let test_registry_merge () =
  let a = Fire_rule.define Fire_rule.empty_registry "A" [] in
  let b = Fire_rule.define Fire_rule.empty_registry "B" [] in
  let m = Fire_rule.merge a b in
  Alcotest.(check (list string)) "names" [ "A"; "B" ] (Fire_rule.names m);
  (* identical duplicate ok *)
  ignore (Fire_rule.merge m a);
  let a' =
    Fire_rule.define Fire_rule.empty_registry "A"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  (match Fire_rule.merge a a' with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "conflicting merge accepted")

(* ------------------- the paper's MAIN/F/G example ------------------ *)
(* MAIN = F ~FG~> G; F = A ; B; G = C ; D; rule FG = { +<1> ; -<1> }.
   The algorithm DAG must order A->B, C->D (serial) and A->C (fire),
   so the span with unit strands is 3 (A,C,D), not 4. *)

let main_fg_program () =
  let f = Spawn_tree.seq [ strand "A"; strand "B" ] in
  let g = Spawn_tree.seq [ strand "C"; strand "D" ] in
  let main = Spawn_tree.fire ~rule:"FG" f g in
  let reg =
    Fire_rule.define Fire_rule.empty_registry "FG"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  Program.compile ~registry:reg main

let test_main_fg_span () =
  let p = main_fg_program () in
  let r = Analysis.analyze p in
  Alcotest.(check int) "work" 4 r.Analysis.work;
  Alcotest.(check int) "ND span" 3 r.Analysis.span;
  (* NP projection serializes F before G: span 4 *)
  let f = Spawn_tree.seq [ strand "A"; strand "B" ] in
  let g = Spawn_tree.seq [ strand "C"; strand "D" ] in
  let main = Spawn_tree.fire ~rule:"FG" f g in
  let reg =
    Fire_rule.define Fire_rule.empty_registry "FG"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  let np = Analysis.np_of ~registry:reg main in
  Alcotest.(check int) "NP span" 4 np.Analysis.span

let leaf_vertex_by_label p label =
  let n = Program.n_leaves p in
  let rec find i =
    if i >= n then Alcotest.failf "no leaf %s" label
    else
      let v = Program.leaf_vertex p i in
      if Dag.label (Program.dag p) v = label then v else find (i + 1)
  in
  find 0

let test_main_fg_edges () =
  let p = main_fg_program () in
  let dag = Program.dag p in
  let a = leaf_vertex_by_label p "A" in
  let b = leaf_vertex_by_label p "B" in
  let c = leaf_vertex_by_label p "C" in
  let d = leaf_vertex_by_label p "D" in
  let r = Dag.reachability dag in
  Alcotest.(check bool) "A->B" true (Dag.reachable r a b);
  Alcotest.(check bool) "C->D" true (Dag.reachable r c d);
  Alcotest.(check bool) "A->C (fire)" true (Dag.reachable r a c);
  Alcotest.(check bool) "B and C unordered" false
    (Dag.reachable r b c || Dag.reachable r c b);
  Alcotest.(check bool) "B and D unordered" false
    (Dag.reachable r b d || Dag.reachable r d b)

let test_undefined_rule_rejected () =
  let t = Spawn_tree.fire ~rule:"nope" (strand "a") (strand "b") in
  match Program.compile ~registry:Fire_rule.empty_registry t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undefined rule accepted"

let test_empty_rules_is_parallel () =
  let reg = Fire_rule.define Fire_rule.empty_registry "PAR" [] in
  let t = Spawn_tree.fire ~rule:"PAR" (strand "a") (strand "b") in
  let r = Analysis.analyze_tree ~registry:reg t in
  Alcotest.(check int) "span 1 = fully parallel" 1 r.Analysis.span

let test_leaf_fire_full () =
  (* non-empty rule set between two strands degrades to a full edge *)
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [ Fire_rule.rule [ 1 ] (Fire_rule.Named "R") [ 1 ] ]
  in
  let t = Spawn_tree.fire ~rule:"R" (strand "a") (strand "b") in
  let r = Analysis.analyze_tree ~registry:reg t in
  Alcotest.(check int) "span 2 = serialized" 2 r.Analysis.span

(* ------------------- recursive fire rule example ------------------- *)
(* A binary-recursive "diag" pattern: D(n) = D(n/2) ~R~> D(n/2) with
   R = { +<2> ~R~> -<1> }: the second half of the source fires the first
   half of the sink.  At the leaves this gives a chain of length
   ... source-last -> sink-first ..., so span counts src depth + 1 chain. *)

let rec balanced n =
  if n = 1 then strand "u"
  else Spawn_tree.par [ balanced (n / 2); balanced (n / 2) ]

let test_recursive_rule () =
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [ Fire_rule.rule [ 2 ] (Fire_rule.Named "R") [ 1 ] ]
  in
  let t = Spawn_tree.fire ~rule:"R" (balanced 4) (balanced 4) in
  let r = Analysis.analyze_tree ~registry:reg t in
  (* rewriting: +<2> of source vs -<1> of sink recursively: ends with a
     single leaf-to-leaf edge: last leaf-group of src chains into first of
     sink: span = 2 (one src leaf then one sink leaf). *)
  Alcotest.(check int) "work" 8 r.Analysis.work;
  Alcotest.(check int) "span" 2 r.Analysis.span

let test_no_progress_falls_back_to_full () =
  (* a self-referential rule that never descends must degrade to a full
     dependency rather than loop or drop the edge *)
  let reg =
    Fire_rule.define Fire_rule.empty_registry "LOOP"
      [ Fire_rule.rule [] (Fire_rule.Named "LOOP") [] ]
  in
  let t = Spawn_tree.fire ~rule:"LOOP" (balanced 2) (balanced 2) in
  let r = Analysis.analyze_tree ~registry:reg t in
  Alcotest.(check int) "span serialized" 2 r.Analysis.span

(* --------------------------- rule check ---------------------------- *)

let test_rule_check_clean () =
  let p = main_fg_program () in
  Alcotest.(check int) "no findings" 0 (List.length (Rule_check.diagnose p))

let test_rule_check_finds_missing_rule () =
  (* a fire with an empty rule set over conflicting strands: the race must
     be lifted to that fire node with root-level pedigrees *)
  let w = Is.interval 0 4 in
  let s label = Spawn_tree.leaf (Strand.make ~label ~work:1 ~reads:Is.empty ~writes:w ()) in
  let reg = Fire_rule.define Fire_rule.empty_registry "EMPTY" [] in
  let t = Spawn_tree.fire ~rule:"EMPTY" (s "a") (s "b") in
  let p = Program.compile ~registry:reg t in
  match Rule_check.diagnose p with
  | [ f ] ->
    (match f.Rule_check.lca_kind with
    | Program.Fire "EMPTY" -> ()
    | _ -> Alcotest.fail "lca is not the fire node");
    Alcotest.(check string) "src pedigree" "<1>"
      (Pedigree.to_string f.Rule_check.src_pedigree);
    Alcotest.(check string) "dst pedigree" "<2>"
      (Pedigree.to_string f.Rule_check.dst_pedigree)
  | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other)

let test_pedigree_from () =
  let p = main_fg_program () in
  let root = Program.root p in
  (* leaf 2 = C: inside the fire's sink (child 2), first child of the seq *)
  let c = Program.leaf_node p 2 in
  Alcotest.(check string) "path to C" "<2.1>"
    (Pedigree.to_string (Rule_check.pedigree_from p ~ancestor:root c));
  Alcotest.(check string) "self" "<>"
    (Pedigree.to_string (Rule_check.pedigree_from p ~ancestor:c c));
  Alcotest.(check int) "lca of leaves" root
    (Rule_check.lca p (Program.leaf_node p 0) c)

(* ------------------------- serial executor ------------------------- *)

let test_serial_exec_orders () =
  (* actions record the visit order; dependencies must be respected for
     every random order *)
  let log = ref [] in
  let strand_act label =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:Is.empty ~writes:Is.empty
         ~action:(fun () -> log := label :: !log)
         ())
  in
  let t =
    Spawn_tree.seq
      [ strand_act "1"; Spawn_tree.par [ strand_act "2"; strand_act "3" ];
        strand_act "4" ]
  in
  let p = Program.compile ~registry:Fire_rule.empty_registry t in
  for seed = 1 to 10 do
    log := [];
    Nd.Serial_exec.run ~rng:(Nd_util.Prng.create seed) p;
    match List.rev !log with
    | [ "1"; a; b; "4" ] when (a = "2" && b = "3") || (a = "3" && b = "2") -> ()
    | order -> Alcotest.failf "bad order: %s" (String.concat "," order)
  done;
  (* the DFS variant is deterministic left-to-right *)
  log := [];
  Nd.Serial_exec.run_sequential p;
  Alcotest.(check (list string)) "dfs order" [ "1"; "2"; "3"; "4" ]
    (List.rev !log)

(* --------------------------- program ------------------------------ *)

let test_program_structure () =
  let p = main_fg_program () in
  Alcotest.(check int) "leaves" 4 (Program.n_leaves p);
  let root = Program.root p in
  Alcotest.(check int) "root parent" (-1) (Program.parent p root);
  (match Program.kind_of p root with
  | Program.Fire "FG" -> ()
  | _ -> Alcotest.fail "root kind");
  Alcotest.(check (pair int int)) "root leaf range" (0, 4)
    (Program.leaf_range p root);
  let cs = Program.children p root in
  Alcotest.(check int) "two children" 2 (Array.length cs);
  Alcotest.(check (pair int int)) "src range" (0, 2) (Program.leaf_range p cs.(0));
  Alcotest.(check (pair int int)) "snk range" (2, 4) (Program.leaf_range p cs.(1));
  Alcotest.(check bool) "ancestry" true (Program.is_ancestor p root cs.(0));
  Alcotest.(check bool) "no reverse ancestry" false
    (Program.is_ancestor p cs.(0) root)

let sized_strand label lo hi =
  Spawn_tree.leaf
    (Strand.make ~label ~work:(hi - lo) ~reads:Is.empty ~writes:(Is.interval lo hi) ())

let test_footprint_size () =
  let t =
    Spawn_tree.seq
      [ sized_strand "a" 0 4; sized_strand "b" 2 6; sized_strand "c" 10 12 ]
  in
  let reg = Fire_rule.empty_registry in
  let p = Program.compile ~registry:reg t in
  let root = Program.root p in
  Alcotest.(check int) "size of union" 8 (Program.size p root);
  Alcotest.(check int) "work" 10 (Program.work_of_node p root)

let test_decompose () =
  (* Par of 4 strands of size 4 each, disjoint: total 16.
     m = 8: the root (16) is glue; each pair subtree... build binary. *)
  let quad =
    Spawn_tree.par
      [
        Spawn_tree.par [ sized_strand "a" 0 4; sized_strand "b" 4 8 ];
        Spawn_tree.par [ sized_strand "c" 8 12; sized_strand "d" 12 16 ];
      ]
  in
  let p = Program.compile ~registry:Fire_rule.empty_registry quad in
  let d = Program.decompose p ~m:8 in
  Alcotest.(check int) "two maximal tasks" 2 (Array.length d.Program.tasks);
  Alcotest.(check int) "one glue node" 1 d.Program.n_glue;
  Array.iter
    (fun t -> Alcotest.(check int) "task size" 8 (Program.size p t))
    d.Program.tasks;
  (* m large: root is the single task *)
  let d16 = Program.decompose p ~m:16 in
  Alcotest.(check int) "single task" 1 (Array.length d16.Program.tasks);
  Alcotest.(check int) "no glue" 0 d16.Program.n_glue;
  (* m tiny: every leaf is a task *)
  let d1 = Program.decompose p ~m:1 in
  Alcotest.(check int) "four tasks" 4 (Array.length d1.Program.tasks);
  Alcotest.(check int) "three glue" 3 d1.Program.n_glue;
  (* vertices of a task map to it *)
  Array.iteri
    (fun idx task_node ->
      let lo, hi = Program.leaf_range p task_node in
      for i = lo to hi - 1 do
        let v = Program.leaf_vertex p i in
        Alcotest.(check int) "leaf vertex task" idx d1.Program.task_of_vertex.(v)
      done)
    d1.Program.tasks

let test_decompose_invalid () =
  let p = main_fg_program () in
  Alcotest.check_raises "m<1" (Invalid_argument "Program.decompose: m < 1")
    (fun () -> ignore (Program.decompose p ~m:0))

let test_dag_acyclic_property =
  (* random small spawn trees with a simple diagonal rule are acyclic and
     have span between the Par and Seq projections *)
  let open QCheck2 in
  let gen_tree =
    let rec gen depth =
      Gen.(
        if depth = 0 then
          map (fun w -> strand ~work:(1 + w) "s") (int_bound 3)
        else
          frequency
            [
              (2, map (fun w -> strand ~work:(1 + w) "s") (int_bound 3));
              ( 2,
                map2
                  (fun a b -> Spawn_tree.seq [ a; b ])
                  (gen (depth - 1)) (gen (depth - 1)) );
              ( 2,
                map2
                  (fun a b -> Spawn_tree.par [ a; b ])
                  (gen (depth - 1)) (gen (depth - 1)) );
              ( 1,
                map2
                  (fun a b -> Spawn_tree.fire ~rule:"R" a b)
                  (gen (depth - 1)) (gen (depth - 1)) );
            ])
    in
    gen 4
  in
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [
        Fire_rule.rule [ 1 ] (Fire_rule.Named "R") [ 1 ];
        Fire_rule.rule [ 2 ] (Fire_rule.Named "R") [ 2 ];
      ]
  in
  QCheck2.Test.make ~name:"ND span between Par and Seq projections" ~count:100
    gen_tree (fun t ->
      let nd = Analysis.analyze_tree ~registry:reg t in
      let np = Analysis.np_of ~registry:reg t in
      let par =
        Analysis.analyze_tree ~registry:reg (Spawn_tree.parallelize_fires t)
      in
      nd.Analysis.work = np.Analysis.work
      && nd.Analysis.span <= np.Analysis.span
      && par.Analysis.span <= nd.Analysis.span)

let () =
  Alcotest.run "nd_core"
    [
      ("pedigree", [ Alcotest.test_case "basics" `Quick test_pedigree ]);
      ("strand", [ Alcotest.test_case "basics" `Quick test_strand ]);
      ( "spawn_tree",
        [
          Alcotest.test_case "shape" `Quick test_tree_shape;
          Alcotest.test_case "child/resolve" `Quick test_tree_child_resolve;
          Alcotest.test_case "projections" `Quick test_projections;
        ] );
      ( "fire_rule",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "merge" `Quick test_registry_merge;
        ] );
      ( "drs",
        [
          Alcotest.test_case "MAIN/F/G span (paper fig 3-4)" `Quick
            test_main_fg_span;
          Alcotest.test_case "MAIN/F/G edges" `Quick test_main_fg_edges;
          Alcotest.test_case "undefined rule" `Quick test_undefined_rule_rejected;
          Alcotest.test_case "empty rules = parallel" `Quick
            test_empty_rules_is_parallel;
          Alcotest.test_case "leaf-level fire = full" `Quick test_leaf_fire_full;
          Alcotest.test_case "recursive rule" `Quick test_recursive_rule;
          Alcotest.test_case "no-progress fallback" `Quick
            test_no_progress_falls_back_to_full;
          QCheck_alcotest.to_alcotest test_dag_acyclic_property;
        ] );
      ( "rule_check",
        [
          Alcotest.test_case "clean program" `Quick test_rule_check_clean;
          Alcotest.test_case "missing rule located" `Quick
            test_rule_check_finds_missing_rule;
          Alcotest.test_case "pedigree_from/lca" `Quick test_pedigree_from;
        ] );
      ( "serial_exec",
        [ Alcotest.test_case "orders respect deps" `Quick test_serial_exec_orders ] );
      ( "program",
        [
          Alcotest.test_case "structure" `Quick test_program_structure;
          Alcotest.test_case "footprint/size" `Quick test_footprint_size;
          Alcotest.test_case "decompose" `Quick test_decompose;
          Alcotest.test_case "decompose invalid" `Quick test_decompose_invalid;
        ] );
    ]
