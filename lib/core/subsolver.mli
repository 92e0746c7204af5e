(** Sub-schedule synthesis for sketch combinations (§5.1, §5.3).

    Planning turns a combination into a global chunk table plus {e merged
    sub-demands} — one per (stage, dimension, group) slice, holding every
    chunk fragment that must move inside that group at that stage.
    Sub-demands are partitioned into isomorphism classes; one representative
    per class is solved (greedy fast path, optionally refined by the epoch
    MILP warm-started with the greedy incumbent) and the solution is mapped
    onto the other members through an intra-group position bijection,
    verified, with a direct re-solve as fallback. *)

type strategy =
  | Fast_only  (** greedy earliest-finish only (step-1 "fast solving") *)
  | Milp_refine of {
      e : float;  (** epoch-accuracy knob (Appendix A.3) *)
      var_budget : int;  (** skip MILP when the model would exceed this *)
      node_limit : int;
      time_limit : float;
    }  (** greedy incumbent + epoch-MILP refinement ("accurate solving") *)

type entry = {
  chunk : int;  (** global chunk id *)
  e_size : float;
  e_srcs : int list;  (** GPUs of the group holding the chunk at stage start *)
  e_dsts : int list;  (** GPUs of the group that must receive it this stage *)
}

type demand = { d_stage : int; d_dim : int; d_group : int; entries : entry list }

type plan = {
  chunks : Syccl_sim.Schedule.chunk_meta array;  (** global chunk table *)
  demands : demand list;
}

val plan :
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  Combine.combo ->
  plan
(** Build the chunk table and merged sub-demands for one combination of one
    single-phase collective (reduce-family phases are planned as their dual
    gather problem; the caller reverses the assembled schedule). *)

type canon
(** A demand's canonical form, computed once and reused for classification,
    lookup and mapping: its group members, the position→rank map and the
    canonical position order, the permutation putting its entries in
    canonical order, and its class key.  Compact (int arrays and two
    16-byte digests), so keeping one per distinct demand costs little. *)

val canon : ?normalized:bool -> Syccl_topology.Topology.t -> demand -> canon
(** Canonicalize in one pass over the entries.  Positions are ordered by
    fault adjacency, then by their sorted multiset of roles (size key,
    source?, destination?, #sources, #destinations), ties by raw position;
    entries by (size key, sorted source ranks, sorted destination ranks),
    ties by entry index.  Size keys are absolute, or with [~normalized:true]
    ratios of the demand's largest entry, so demands that differ only by
    a uniform chunk-size scale share a normalized key (the cross-size
    sub-solve memo uses it).  Bumps [subsolve.canon]. *)

val key : canon -> string
(** The class key: equal for demands of one isomorphism class (same
    dimension, group size, canonical entry keys and canonical dead-edge
    set). *)

val class_key : Syccl_topology.Topology.t -> demand -> string
(** [key (canon topo demand)]: demands with equal keys are solved once
    (§5.3). *)

val strategy_signature : strategy -> string
(** Stable textual fingerprint of a strategy, for cache keys. *)

val solve_demand :
  ?warm:Syccl_sim.Schedule.xfer list ->
  ?budget:Syccl_util.Budget.t ->
  ?pool:Syccl_util.Pool.t ->
  ?cache:(string, Syccl_milp.Lp.basis_state) Syccl_util.Cache.t * string ->
  strategy ->
  Syccl_topology.Topology.t ->
  demand ->
  Syccl_sim.Schedule.xfer list
(** Solve one sub-demand; transfers use {e local} chunk ids (entry order).
    [warm], if given and valid for the demand, competes with the greedy
    incumbent before MILP refinement (the fine step warm-starts from the
    coarse step's solution this way).  [pool] parallelizes MILP node waves
    and [cache] carries warm-start bases across the sketch family's
    same-shaped sibling demands, paired with the tag that scopes this
    demand's entries in it, normally its {!class_key} (both forwarded to
    {!Syccl_teccl.Epoch_model.solve}); pass one cache per sequential solve
    sequence — it is not safe to share across concurrent solves.

    Deadline behaviour: an already-expired [budget] returns the (valid,
    unoptimized) direct candidate immediately; MILP refinement is skipped
    when the remaining budget is below the estimated solve time (p90 of
    the process-wide ["milp.solve_s"] history).  Every budget-forced
    shortcut bumps ["subsolve.budget_skips"] and marks the budget degraded
    ({!Syccl_util.Budget.mark_degraded}).  The ["subsolver.crash"]
    {!Syccl_util.Faultpoint} probe fires at entry. *)

val no_worse_than_direct :
  Syccl_topology.Topology.t ->
  demand ->
  Syccl_sim.Schedule.xfer list ->
  bool
(** [true] iff [xfers] — a candidate solution for [demand], local chunk
    ids — simulates no slower than the cheap direct candidate that
    {!solve_demand} always constructs.  The synthesizer uses this to guard
    memoized cross-size transfers: a cached solution refined for a
    different chunk size is only reused when it at least matches the
    direct baseline, so cache warmth can never regress schedule quality
    below it. *)

val verify :
  Syccl_topology.Topology.t -> demand -> Syccl_sim.Schedule.xfer list -> bool
(** Causal check of a solution (local chunk ids): every entry's transfers,
    followed from its sources, deliver each destination exactly once and
    fire all, inside the demand's group and dimension, on live links. *)

type mapping =
  | Identity of Syccl_sim.Schedule.xfer list
      (** same dim, group and entries: the representative's own xfers,
          not re-verified *)
  | Mapped of Syccl_sim.Schedule.xfer list  (** relabelled and verified *)
  | Unmapped  (** alignment or verification failed *)

val transfer :
  ?normalized:bool ->
  ?rc:canon ->
  ?dc:canon ->
  Syccl_topology.Topology.t ->
  rep:demand ->
  rep_xfers:Syccl_sim.Schedule.xfer list ->
  demand ->
  mapping
(** Map a representative's solution onto an isomorphic demand.  When the
    two demands live in the same group of the same dimension and have
    structurally equal entries the mapping is the identity and the
    verification is skipped; equal entries under a different dim/group
    take the general, verified path.  Otherwise GPUs map through the two
    canonical position orders and entries through the two canonical entry
    orders, and the result is {!verify}'d.  [rc] and [dc] are the forms of
    [rep] and [demand] if already known (computed here otherwise); with
    [~normalized:true] they must be normalized forms, and entry sizes are
    matched as ratios (each demand scaled by its own largest entry),
    enabling cross-size mapping of memoized solutions.  Bumps
    [subsolve.transfers], and [subsolve.transfer_fail] on [Unmapped]. *)

val assemble :
  plan ->
  solution:(demand -> Syccl_sim.Schedule.xfer list) ->
  Syccl_sim.Schedule.t
(** Stitch per-demand solutions (local chunk ids) into the full schedule:
    chunk ids are globalized, priorities offset by stage so cross-stage
    pipelining is decided by data dependencies (Fig. 12b). *)
