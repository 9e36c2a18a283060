type node_id = int

type kind = Leaf of Strand.t | Seq | Par | Fire of string

type t = {
  registry : Fire_rule.registry;
  kind : kind array;
  children : node_id array array;
  parent : node_id array;
  first_node : node_id array;
  leaf_lo : int array;
  leaf_hi : int array;
  leaf_nodes : node_id array;
  begin_ev : int array;
  end_ev : int array;
  ev_work : int array;
}

let undefined name =
  invalid_arg (Printf.sprintf "Drs: undefined fire type %S" name)

(* ------------------------------------------------------------------ *)
(* Spawn rule: the skeleton                                           *)
(* ------------------------------------------------------------------ *)

let rec count (nodes, events) = function
  | Spawn_tree.Leaf _ -> (nodes + 1, events + 1)
  | Spawn_tree.Seq cs -> List.fold_left count (nodes + 1, events) cs
  | Spawn_tree.Par cs -> List.fold_left count (nodes + 1, events + 2) cs
  | Spawn_tree.Fire { src; snk; _ } ->
    count (count (nodes + 1, events + 2) src) snk

let flatten ~registry tree =
  let n, n_ev = count (0, 0) tree in
  let kind = Array.make n Seq and children = Array.make n [||] in
  let first_node = Array.make n 0 in
  let leaf_lo = Array.make n 0 and leaf_hi = Array.make n 0 in
  let begin_ev = Array.make n 0 and end_ev = Array.make n 0 in
  let ev_work = Array.make n_ev 0 in
  let leaf_nodes = ref [] in
  let next_node = ref 0 and next_ev = ref 0 and next_leaf = ref 0 in
  let event w =
    let e = !next_ev in
    ev_work.(e) <- w;
    incr next_ev;
    e
  in
  (* children are laid out before their parent: post-order ids *)
  let rec build t =
    let first = !next_node and lo = !next_leaf in
    let k, cs, b, e =
      match t with
      | Spawn_tree.Leaf s ->
        let ev = event s.Strand.work in
        incr next_leaf;
        (Leaf s, [||], ev, ev)
      | Spawn_tree.Seq l ->
        let cs = Array.of_list (List.map build l) in
        (Seq, cs, begin_ev.(cs.(0)), end_ev.(cs.(Array.length cs - 1)))
      | Spawn_tree.Par l ->
        let b = event 0 in
        let cs = Array.of_list (List.map build l) in
        (Par, cs, b, event 0)
      | Spawn_tree.Fire { rule; src; snk } ->
        if not (Fire_rule.mem registry rule) then undefined rule;
        let b = event 0 in
        let a = build src in
        let c = build snk in
        (Fire rule, [| a; c |], b, event 0)
    in
    let id = !next_node in
    incr next_node;
    kind.(id) <- k;
    children.(id) <- cs;
    first_node.(id) <- first;
    leaf_lo.(id) <- lo;
    leaf_hi.(id) <- !next_leaf;
    begin_ev.(id) <- b;
    end_ev.(id) <- e;
    (match k with Leaf _ -> leaf_nodes := id :: !leaf_nodes | _ -> ());
    id
  in
  ignore (build tree);
  let parent = Array.make n (-1) in
  Array.iteri (fun id cs -> Array.iter (fun c -> parent.(c) <- id) cs) children;
  {
    registry;
    kind;
    children;
    parent;
    first_node;
    leaf_lo;
    leaf_hi;
    leaf_nodes = Array.of_list (List.rev !leaf_nodes);
    begin_ev;
    end_ev;
    ev_work;
  }

let n_nodes t = Array.length t.kind

let root t = n_nodes t - 1

(* ------------------------------------------------------------------ *)
(* Fire rule: pedigree resolution and the rewriting                   *)
(* ------------------------------------------------------------------ *)

type resolution = Clean | Bottomed | Mismatch

(* The rewriting's hot path: the reached node and the outcome packed
   into one int ([node lsl 2 lor code]), so resolving allocates
   nothing. *)
let clean = 0

let bottomed = 1

let mismatch = 2

let resolve_code children id steps =
  let rec go id i =
    if i = Array.length steps then (id lsl 2) lor clean
    else
      let cs = children.(id) in
      let len = Array.length cs in
      if len = 0 then (id lsl 2) lor bottomed
      else
        let s = steps.(i) in
        if s >= 1 && s <= len then go cs.(s - 1) (i + 1)
        else (id lsl 2) lor mismatch
  in
  go id 0

let resolve t id p =
  let code = resolve_code t.children id (Array.of_list (Pedigree.to_list p)) in
  ( code lsr 2,
    match code land 3 with 0 -> Clean | 1 -> Bottomed | _ -> Mismatch )

(* Open-addressing set of non-negative ints (linear probing, -1 = empty):
   the visited arrows and the emitted pairs are keyed by packed ints, so
   membership is one multiply and a short probe, with no polymorphic
   hashing. *)
module Int_set = struct
  type t = { mutable keys : int array; mutable size : int }

  let create () = { keys = Array.make 1024 (-1); size = 0 }

  let slot keys k =
    let mask = Array.length keys - 1 in
    let rec probe i =
      let x = keys.(i) in
      if x = -1 || x = k then i else probe ((i + 1) land mask)
    in
    probe (((k * 0x2545F4914F6CDD1D) lsr 20) land mask)

  let mem t k = t.keys.(slot t.keys k) = k

  let grow t =
    let old = t.keys in
    let keys = Array.make (2 * Array.length old) (-1) in
    Array.iter (fun k -> if k >= 0 then keys.(slot keys k) <- k) old;
    t.keys <- keys

  (* [add t k] is [true] when [k] was not yet present. *)
  let add t k =
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    let i = slot t.keys k in
    let fresh = t.keys.(i) <> k in
    if fresh then (t.keys.(i) <- k; t.size <- t.size + 1);
    fresh
end

type rule_tally = {
  fire_type : string;
  index : int;
  rule : Fire_rule.rule;
  mutable applied : int;
  mutable clean : int;
  mutable bottomed : int;
}

(* A rule compiled for the walk: pedigrees as arrays, the target
   interned, and the rule's tally. *)
type target = Full | Type of int | Undefined of string

type crule = {
  src : int array;
  via : target;
  dst : int array;
  tally : rule_tally;
}

type rewrite = {
  n : int;  (* pairs are packed as [a * n + b] *)
  pairs : int array;  (* packed, in first-production order *)
  n_pairs : int;
  pair_set : Int_set.t;
  tally : rule_tally list;
}

let rewrite t =
  let n = n_nodes t and reg = t.registry in
  (* fire types are interned in registry order *)
  let names = Fire_rule.names reg in
  let ids = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let n_types = List.length names in
  let steps p = Array.of_list (Pedigree.to_list p) in
  let target = function
    | Fire_rule.Full -> Full
    | Fire_rule.Named v -> (
      match Hashtbl.find_opt ids v with Some i -> Type i | None -> Undefined v)
  in
  let rules =
    Array.of_list
      (List.map
         (fun fire_type ->
           Array.of_list
             (List.mapi
                (fun index (rule : Fire_rule.rule) ->
                  let tally =
                    { fire_type; index; rule; applied = 0; clean = 0;
                      bottomed = 0 }
                  in
                  { src = steps rule.src; via = target rule.via;
                    dst = steps rule.dst; tally })
                (Fire_rule.find reg fire_type)))
         names)
  in
  let children = t.children in
  let pairs = ref (Array.make 256 0) and n_pairs = ref 0 in
  let pair_set = Int_set.create () and visited = Int_set.create () in
  let full_edge a b =
    let key = (a * n) + b in
    if a <> b && t.end_ev.(a) <> t.begin_ev.(b) && Int_set.add pair_set key
    then begin
      if !n_pairs = Array.length !pairs then
        pairs := Array.append !pairs (Array.make !n_pairs 0);
      !pairs.(!n_pairs) <- key;
      incr n_pairs
    end
  in
  let rec process a b r =
    let rs = rules.(r) in
    if Int_set.add visited ((((a * n) + b) * n_types) + r)
       && Array.length rs > 0
    then
      if Array.length children.(a) = 0 && Array.length children.(b) = 0
      then full_edge a b
      else
        Array.iter
          (fun c ->
            let ca = resolve_code children a c.src
            and cb = resolve_code children b c.dst in
            let a' = ca lsr 2 and b' = cb lsr 2 in
            let oa = ca land 3 and ob = cb land 3 and tl = c.tally in
            tl.applied <- tl.applied + 1;
            if oa = clean && ob = clean then tl.clean <- tl.clean + 1
            else if oa <> mismatch && ob <> mismatch then
              tl.bottomed <- tl.bottomed + 1;
            match c.via with
            | Full -> full_edge a' b'
            | Undefined name -> undefined name
            | Type r' when a' = a && b' = b && r' = r ->
              (* no structural progress: conservative full edge *)
              full_edge a b
            | Type r' -> process a' b' r')
          rs
  in
  Array.iteri
    (fun id k ->
      match k with
      | Fire r ->
        process children.(id).(0) children.(id).(1) (Hashtbl.find ids r)
      | Leaf _ | Seq | Par -> ())
    t.kind;
  let tally =
    List.concat_map
      (fun rs -> List.map (fun (c : crule) -> c.tally) (Array.to_list rs))
      (Array.to_list rules)
  in
  { n; pairs = !pairs; n_pairs = !n_pairs; pair_set; tally }

let n_pairs r = r.n_pairs

let iter_pairs r f =
  for i = 0 to r.n_pairs - 1 do
    f (r.pairs.(i) / r.n) (r.pairs.(i) mod r.n)
  done

let mem_pair r a b =
  a >= 0 && a < r.n && b >= 0 && b < r.n
  && Int_set.mem r.pair_set ((a * r.n) + b)

let pairs r =
  let keys = Array.sub r.pairs 0 r.n_pairs in
  Array.sort Int.compare keys;
  Array.fold_right (fun k acc -> (k / r.n, k mod r.n) :: acc) keys []

let tally r = r.tally

(* ------------------------------------------------------------------ *)
(* Span: forward longest-path DP over the events                      *)
(* ------------------------------------------------------------------ *)

(* Structural edges go forward in event order by construction (a Par or
   Fire allocates its begin event before its children's and its end
   event after them; a Seq chains an earlier child's end to a later
   child's begin).  A rewritten pair runs from inside the source subtree
   of some Fire node to inside its sink subtree — the rewriting never
   leaves them — and the source's events are all allocated before the
   sink's, so fire edges go forward too.  Event order is therefore a
   topological order, and one sweep relaxing successors in that order
   is the exact critical path. *)
let span t r =
  let n_ev = Array.length t.ev_work in
  let succs = Array.make n_ev [] in
  let edge u v = succs.(u) <- v :: succs.(u) in
  Array.iteri
    (fun id k ->
      let cs = t.children.(id) in
      match k with
      | Leaf _ -> ()
      | Seq ->
        for i = 1 to Array.length cs - 1 do
          edge t.end_ev.(cs.(i - 1)) t.begin_ev.(cs.(i))
        done
      | Par | Fire _ ->
        Array.iter
          (fun c ->
            edge t.begin_ev.(id) t.begin_ev.(c);
            edge t.end_ev.(c) t.end_ev.(id))
          cs)
    t.kind;
  iter_pairs r (fun a b -> edge t.end_ev.(a) t.begin_ev.(b));
  let dist = Array.make n_ev 0 and best = ref 0 in
  for v = 0 to n_ev - 1 do
    let d = dist.(v) + t.ev_work.(v) in
    if d > !best then best := d;
    List.iter (fun w -> if d > dist.(w) then dist.(w) <- d) succs.(v)
  done;
  !best
