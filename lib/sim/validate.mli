(** Schedule validity and demand-coverage checking.

    Used throughout the test-suite and by the synthesizers as a
    post-condition: a schedule must actually satisfy the collective demand it
    was synthesized for, without bandwidth-wasting duplicate deliveries. *)

val check : Syccl_topology.Topology.t -> Schedule.t -> (unit, string) result
(** Self-consistency of a schedule against its own chunk metadata:
    - every transfer's endpoints are distinct peers in its dimension;
    - gather chunks: a causal order exists that delivers the chunk to every
      [wanted] GPU, and no GPU receives the same chunk twice;
    - reduce chunks: the transfers form a forest flowing into the single
      [wanted] destination, every [initial] contributor reaches it, and no
      GPU sends the chunk twice. *)

val covers :
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  Schedule.t ->
  (unit, string) result
(** {!check} plus demand coverage: schedule chunks grouped by [tag] must
    reconstruct each chunk of the collective — same sources and destinations,
    and fraction sizes summing to the demand chunk size (0.1 % tolerance).
    AllReduce demands must be validated per phase. *)

val validate :
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  Schedule.t list ->
  (unit, string) result
(** Validate a whole synthesis outcome: one schedule per phase of the
    collective ({!Syccl_collective.Collective.phases}), each run through
    {!covers} against its phase.  Errors are prefixed with the phase
    index.  This is the post-condition every degradation-ladder rung must
    pass before its result is returned.  Each call records its wall time
    in the [validate_s] histogram and opens one [validate] trace span.

    Validation is linear in the schedule size (plus sorting each chunk's
    destinations and contributor sets). *)
