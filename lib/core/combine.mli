(** Sketch combinations (§4.2–4.3): replication for per-group balance, chunk
    allocation for per-dimension balance, and the all-to-all extension. *)

type combo = {
  sketches : (Sketch.t * float) list;
      (** (sketch, fraction of its chunk it carries); fractions per root sum
          to 1 *)
  desc : string;  (** human-readable provenance, e.g. "shape0 x4 + shape1 x7" *)
}

val replicate_balanced :
  Syccl_topology.Topology.t -> ?max_replicas:int -> Sketch.t -> Sketch.t list
(** Step 1: re-instantiate the sketch's shape with load-aware destination
    mapping until every dimension's per-group workload is uniform (or the
    replica cap, default 2× the largest group count, is reached).  The result
    includes the original sketch first. *)

val allocate :
  Syccl_topology.Topology.t -> float array list -> float array option
(** Step 2: given each candidate's per-dimension workload vector, find chunk
    fractions [t_i ≥ 0, Σt_i = 1] making load proportional to bandwidth for
    {e every} physical port group (dimensions sharing a port pool their
    workload).  [None] if no valid allocation exists — including when the
    candidates leave a port group entirely idle. *)

val all_to_all_replicas :
  Syccl_topology.Topology.t -> Sketch.t -> Sketch.t list
(** §4.3: replicate a one-to-all sketch to every root through the canonical
    automorphisms, yielding the N isomorphic sketches of the all-to-all
    decomposition. *)

val combos_one_to_all :
  ?max_combos:int ->
  ?budget:Syccl_util.Budget.t ->
  Syccl_topology.Topology.t ->
  Sketch.t list ->
  combo list
(** Single-sketch combos (small sizes), balanced replica combos, and
    dimension-balanced integrations of pairs/triples of replica combos,
    in that order.  Generation stops once [max_combos] (default 48) exist,
    so the result is always the first [max_combos] of the uncapped list.
    When [budget] expires mid-generation the combos built so far are
    returned and the budget is marked degraded (solo combos are generated
    first, so a tight deadline still yields candidates). *)

val combos_all_to_all :
  ?max_combos:int ->
  ?budget:Syccl_util.Budget.t ->
  Syccl_topology.Topology.t ->
  Sketch.t list ->
  combo list
(** Same construction where each base sketch is first expanded to its N
    per-root replicas. *)
