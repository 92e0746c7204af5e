(** The reference α-β simulator: the implementation {!Syccl_sim.Sim.run}
    replaced, kept unchanged as a differential-testing oracle (the
    [sim-differential] property and the simulator tests).  It must agree
    with {!Syccl_sim.Sim.run} bit for bit — same [time], [events] and
    [xfer_finish], and the same exceptions. *)

type report = Syccl_sim.Sim.report = {
  time : float;
  events : int;
  xfer_finish : float array;
}

val run :
  ?blocks:int -> ?trace_pid:int -> Syccl_topology.Topology.t ->
  Syccl_sim.Schedule.t -> report

val time :
  ?blocks:int -> Syccl_topology.Topology.t -> Syccl_sim.Schedule.t -> float
