(** The DAG Rewriting System (DRS): the one implementation of the
    paper's two rewriting rules.  {!Program.compile} builds the algorithm
    DAG from it, [Nd_analyze.Cost] computes work, span and Q* from it
    without a DAG, and [Nd_analyze.Lint] reads its rule tally.

    - {b Spawn rule} ({!flatten}): every spawn-tree node contributes
      structure.  Strands become work-carrying vertices.  [Seq] chains
      its children; [Par] and [Fire] fan out between zero-work begin/end
      synchronization vertices, which keeps the DAG linear in the number
      of leaves while preserving the precedence relation exactly (a full
      dependency [a ; b] is the single edge [end(a) -> begin(b)], and
      [end(a)] is a descendant of every leaf of [a]).  A [Seq] owns no
      vertex of its own: its begin is its first child's begin and its end
      its last child's end.

    - {b Fire rule} ({!rewrite}): every [Fire] node seeds a dataflow
      arrow [(src, snk, rule)] which is rewritten recursively: each
      registered rule [+p ⇝R -q] resolves the pedigrees [p] and [q] below
      the arrow's endpoints and recurses; arrows between two strands, and
      arrows whose rules make no further progress, become full-dependency
      edges (the paper: fire arrows incident to leaves are treated as
      solid arrows).  Fire types with an empty rule list behave as ["‖"].
      A pedigree step that addresses a child the node does not have stops
      the resolution at that node (the arrow attaches at the deepest
      existing node).

    Nodes are numbered in post-order (children before their parent, the
    root last), so a subtree is the contiguous id range
    [\[first_node.(n), n\]].  Leaves are numbered in depth-first order,
    so every node also covers a contiguous leaf interval — the
    representation behind the M-maximal decompositions used by the
    metrics and schedulers. *)

type node_id = int

type kind = Leaf of Strand.t | Seq | Par | Fire of string

(** {1 The skeleton} *)

(** The flattened spawn tree.  Besides the node layout it carries a DFS
    {e event} numbering: one event per leaf (carrying the strand's work),
    and a begin event before and an end event after the children of
    every [Par] and [Fire]; a [Seq] aliases its first child's begin and
    last child's end, exactly as the DAG's vertices do.  Event order is a
    topological order of the DAG (see {!span}).  The arrays are shared:
    treat them as read-only. *)
type t = private {
  registry : Fire_rule.registry;
  kind : kind array;
  children : node_id array array;
  parent : node_id array;  (** [-1] for the root *)
  first_node : node_id array;  (** lowest node id in the subtree *)
  leaf_lo : int array;  (** half-open DFS leaf interval of the subtree *)
  leaf_hi : int array;
  leaf_nodes : node_id array;  (** the [i]-th leaf's node, DFS order *)
  begin_ev : int array;  (** the event before every strand of the subtree *)
  end_ev : int array;  (** the event after every strand of the subtree *)
  ev_work : int array;  (** per event: strand work, [0] for sync events *)
}

(** [flatten ~registry tree] lays out the spawn tree.
    @raise Invalid_argument if the tree uses a fire type the registry
    does not define. *)
val flatten : registry:Fire_rule.registry -> Spawn_tree.t -> t

val n_nodes : t -> int

(** The root is the last node id. *)
val root : t -> node_id

(** {1 Pedigree resolution} *)

(** How a pedigree resolution ended: [Clean] consumed every step;
    [Bottomed] stopped at a leaf (the recursion's base case — benign);
    [Mismatch] asked an internal node for a child it does not have (the
    rule addresses structure that does not exist). *)
type resolution = Clean | Bottomed | Mismatch

(** [resolve t n p] follows pedigree [p] down from node [n] as far as it
    goes, returning the node reached and how the walk ended. *)
val resolve : t -> node_id -> Pedigree.t -> node_id * resolution

(** {1 Fire-arrow rewriting} *)

(** The result of the fire rule over a whole skeleton: the deduplicated
    full-dependency node pairs [(a, b)] — each denoting the DAG edge
    [end(a) -> begin(b)], i.e. every strand of [a]'s subtree precedes
    every strand of [b]'s — and the rule tally. *)
type rewrite

(** [rewrite t] runs the fire rule from every [Fire] node, in node
    order.
    @raise Invalid_argument if a rule's [via] names a fire type the
    registry does not define and the rewriting reaches it. *)
val rewrite : t -> rewrite

val n_pairs : rewrite -> int

(** [iter_pairs r f] calls [f a b] on every pair, in the order the
    rewriting first produced them. *)
val iter_pairs : rewrite -> (node_id -> node_id -> unit) -> unit

val mem_pair : rewrite -> node_id -> node_id -> bool

(** The pairs sorted by [(a, b)]. *)
val pairs : rewrite -> (node_id * node_id) list

(** Every application of a rule (once per distinct arrow it is applied
    to) counts as [applied], and as [clean] when both pedigrees resolve
    {!Clean}, else as [bottomed] when neither is a {!Mismatch}.  A rule
    applied but never clean or bottomed only ever degrades to
    conservative attachment (lint rule ND002). *)
type rule_tally = private {
  fire_type : string;
  index : int;  (** 0-based position in the fire type's rule list *)
  rule : Fire_rule.rule;
  mutable applied : int;
  mutable clean : int;
  mutable bottomed : int;
}

(** One entry per registered rule, in registry order. *)
val tally : rewrite -> rule_tally list

(** {1 Span} *)

(** [span t r] is the critical path (total strand work on the heaviest
    path) of the DAG the skeleton and the pairs define: one forward
    longest-path sweep over the event numbering, O(events + edges), no
    DAG built.  Equal to [Dag.span] of the compiled program. *)
val span : t -> rewrite -> int
