(** Human-readable reports for sketches and combinations.

    Appendix C argues a key practical advantage of SyCCL over raw MILP
    output: "we expect SyCCL's high-level sketches to be readable by users
    and capable of being further implemented and optimized manually".  This
    module renders that readable form: per-stage prose for a sketch, and a
    fraction/workload table for a combination. *)

val sketch : Syccl_topology.Topology.t -> Sketch.t -> string
(** Multi-line description: one paragraph per stage listing each
    sub-demand's dimension, group, sources and destinations, followed by the
    per-dimension workload summary of §4.2. *)

val combo : Syccl_topology.Topology.t -> Combine.combo -> string
(** Description of a combination: number of sketches per root, chunk
    fractions, per-dimension workload shares vs the topology's bandwidth
    shares (flagging imbalance), and the full rendering of one
    representative sketch. *)

val phase : Syccl_topology.Topology.t -> int -> Syccl_sim.Schedule.t -> string
(** Critical-path report of one schedule phase, headed [phase I:]: its
    transfer count, makespan and hops per delivery, each dimension's
    traffic with its α (latency) vs β (bandwidth) share of wire time, and
    the four busiest ports with the bottleneck flagged. *)

val outcome :
  ?provenance:string -> Syccl_topology.Topology.t -> Synthesizer.outcome -> string
(** Summary of a synthesis run: the winning combination, predicted time and
    bus bandwidth, the step timings, the degradation-ladder rung (and the
    reason when the run degraded), and one {!phase} report per schedule
    phase.

    [provenance] is a free-form origin line ("registry entry KEY", "fresh
    synthesis under a 2 s budget") printed after the ladder rung, for
    callers explaining a stored or served schedule. *)
