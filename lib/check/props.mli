(** The property catalogue: metamorphic laws of the schedule IR and
    simulator, validator soundness against {!Refcheck}, registry
    invariants, and the differential synthesis oracle.

    Properties draw all inputs from the per-case RNG in {!ctx}, so a
    (seed, property, case) triple fully determines a run. *)

type verdict =
  | Pass
  | Skip of string  (** inputs drawn do not exercise the property *)
  | Fail of string  (** counterexample description, witness inline *)

type ctx = {
  rng : Syccl_util.Xrand.t;
  domains : int;  (** solver parallelism for the synthesis oracle *)
  shrink : bool;  (** greedily shrink counterexample schedules *)
}

type prop = {
  name : string;
  heavy : bool;
      (** multi-solve properties, given a fraction of the case budget *)
  check : ctx -> verdict;
}

val all : prop list
(** - [reverse-involution]: [reverse (reverse s) = s] structurally and in
      simulated cost, under colliding/negative priorities too;
    - [scale-linear]: on zero-latency links, scaling chunk sizes by a
      power of two scales simulated time exactly;
    - [union-dominates]: a shared-port union of valid schedules stays
      valid, and a union over disjoint isomorphic orbits (the §5.3 use)
      costs exactly the max of its parts.  (The naive "never finishes
      before either part" is false under port sharing: the simulator's
      greedy list scheduling admits Graham-style anomalies, which this
      fuzzer demonstrated.);
    - [automorphism-transport]: relabelling GPUs through a topology
      automorphism preserves validity and simulated cost;
    - [generators-agree]: baseline schedules satisfy validator, reference
      checker and simulator;
    - [mutant-soundness]: any mutant the validator accepts also satisfies
      the reference checker and simulator (duplicates must be rejected);
    - [reorder-benign]: transfer-list order never affects validity;
    - [registry-fidelity]: entries stored at one simulator fidelity
      survive probes at another, and report store-time fidelity;
    - [sim-differential]: {!Syccl_sim.Sim.run} agrees bit for bit with the
      reference simulator {!Sim_ref} — [time], [events], every
      [xfer_finish], and the failure message of deadlocked or event-capped
      runs — on valid schedules, shared-port unions and stacked mutants;
      and {!Syccl_sim.Sim.lower_bound} never exceeds the makespan;
    - [validate-differential]: {!Syccl_sim.Validate} returns exactly what
      the reference validator {!Validate_ref} returns (verdict and error
      string) from [check], [covers] and [validate], on valid schedules and
      stacked mutants;
    - [canon-differential]: {!Syccl.Subsolver}'s one-pass canonical form
      against the reference {!Subsolver_ref}, on the sub-demands of random
      combos' plans over healthy and punctured topologies: the same class
      partition (absolute and size-normalized keys), identical [transfer]
      results for absolute and normalized mappings (onto class members,
      other classes and rescaled copies, with and without precomputed
      forms), and identical [verify] verdicts on mutated transfer lists;
    - [size-bucket]: {!Syccl_serve.Registry.size_bucket} is the exact
      power-of-two floor;
    - [lower-replay]: lowering any refcheck-valid schedule to MSCCL XML,
      parsing it back and replaying it under executor semantics
      ({!Syccl_sim.Msccl_interp}) completes without deadlock,
      use-before-receive or double-writes and lands the demanded data,
      at channels 1, 2 and 4;
    - [oracle]: the full synthesis pipeline validates and is never beaten
      beyond per-comparator screening tolerance by greedy-only synthesis,
      TECCL, NCCL or the fallback ladder on the same demand (TECCL's
      epoch MILP is near-exact at oracle scale, so it gets a looser
      bound than the screened baselines). *)

val names : string list
val find : string -> prop option
