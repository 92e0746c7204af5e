(** α-β event-driven schedule simulator (§5.2).

    Chunks are split into [blocks] equal blocks which pipeline across hops:
    block [b] of a relayed transfer may be injected as soon as block [b]
    arrived at the relay.  Ports — one egress and one ingress per (GPU, port
    group) — serialize at [β·block_size] per block; a block lands
    [α + β·block_size] after it starts.  A block that cannot start when
    popped parks on a port's waiting queue and is popped again later, so
    the cost is O(pops · log queue), with pops a small multiple of the
    executed block events (≈ 6.5× on a 64-GPU AllGather). *)

type report = {
  time : float;  (** completion time of the whole schedule, seconds *)
  events : int;  (** number of block events processed *)
  xfer_finish : float array;  (** finish time of each transfer (last block) *)
}

val run :
  ?blocks:int -> Syccl_topology.Topology.t -> Schedule.t -> report
(** Simulate.  [blocks] defaults to 8; it is clamped so blocks are at least
    one byte.  Raises [Invalid_argument] if a transfer references a missing
    chunk or its endpoints are not peers in its dimension, and [Failure] if
    the schedule deadlocks (a transfer's data dependency never resolves).

    The ["sim.crash"] {!Syccl_util.Faultpoint} probe fires at entry, for
    testing that callers tolerate simulator failures.

    Each call bumps the [sim.runs] counter, adds its executed block events
    to [sim.events] and its queue pops to [sim.pops] (deterministic work
    counts), records its wall time in the [sim.run_s] histogram and opens
    one [sim.run] trace span. *)

val timeline :
  ?blocks:int -> pid:int -> ?limit:int -> Syccl_topology.Topology.t ->
  Schedule.t -> report * int
(** {!run}, and (when {!Syccl_util.Trace.enabled}) every executed block
    exported as a virtual-time span on a per-(GPU, port group, direction)
    track under trace pid [pid] — one track per active port, numbered and
    named ["gpu<g> pg<p> out|in"] — so the schedule renders as a
    link-occupancy Gantt chart in Perfetto.  Use a distinct pid per
    simulated schedule (e.g. per phase) to keep timelines separate.

    At most [limit] (default unbounded) timeline events are emitted: each
    block's egress and ingress spans go in together, in execution order,
    until the limit is reached.  Also returns the number of events cut.
    Pass {!Syccl_util.Trace.free_slots} less one (the run's own [sim.run]
    span) to keep the timeline from evicting earlier events. *)

val time : ?blocks:int -> Syccl_topology.Topology.t -> Schedule.t -> float
(** [time topo s] = [(run topo s).time]. *)

val lower_bound :
  ?blocks:int -> Syccl_topology.Topology.t -> Schedule.t -> float
(** A lower bound on [time ?blocks topo s], from port loads alone: the
    largest total β·size any one port must carry, less the simulator's
    per-block start tolerance and any negative α.  Linear in the schedule;
    no simulation.  Assumes [s] is simulatable (see {!run}). *)
