(** The reference validator: the implementation {!Syccl_sim.Validate}
    replaced, kept unchanged as a differential-testing oracle (the
    [validate-differential] property).  Every function must return exactly
    what its {!Syccl_sim.Validate} namesake returns — the same verdict and,
    on rejection, the same error string. *)

val check :
  Syccl_topology.Topology.t -> Syccl_sim.Schedule.t -> (unit, string) result

val covers :
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  Syccl_sim.Schedule.t ->
  (unit, string) result

val validate :
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  Syccl_sim.Schedule.t list ->
  (unit, string) result
