(** The reference sub-demand canonicalization: the implementation
    {!Syccl.Subsolver.canon}, [transfer] and [verify] replaced, kept
    unchanged as a differential-testing oracle (the [canon-differential]
    property).  Its class keys must partition demands exactly as
    {!Syccl.Subsolver.class_key} does (the key strings themselves differ),
    its [transfer] must return the same schedules, and its [verify] the
    same verdicts. *)

val class_key : Syccl_topology.Topology.t -> Syccl.Subsolver.demand -> string

val norm_class_key :
  Syccl_topology.Topology.t -> Syccl.Subsolver.demand -> string

val verify :
  Syccl_topology.Topology.t ->
  Syccl.Subsolver.demand ->
  Syccl_sim.Schedule.xfer list ->
  bool

val transfer :
  ?normalized:bool ->
  Syccl_topology.Topology.t ->
  rep:Syccl.Subsolver.demand ->
  rep_xfers:Syccl_sim.Schedule.xfer list ->
  Syccl.Subsolver.demand ->
  Syccl_sim.Schedule.xfer list option
