(** The fuzzing driver: runs the {!Props} catalogue over deterministic
    per-case generators and aggregates counterexamples.

    Reproducibility: the RNG for (seed, property, case) depends on nothing
    else — not the case budget, not which other properties run — so a
    failure replays with [run ~props:[prop] ~seed ~cases:(case + 1)]. *)

type failure = {
  prop : string;
  case : int;
  detail : string;  (** what failed, with the (shrunk) witness inline *)
}

type prop_stats = {
  prop_name : string;
  cases_run : int;
  passed : int;
  skipped : int;
  failed : int;
}

type report = { seed : int; stats : prop_stats list; failures : failure list }

val total_cases : report -> int

val case_rng : seed:int -> prop:string -> case:int -> Syccl_util.Xrand.t
(** The RNG property [prop] draws case [case] of a [seed] run from. *)

val default_cases : unit -> int
(** [SYCCL_FUZZ_CASES] when set to a positive integer, else 50. *)

val run :
  ?props:string list ->
  ?progress:Format.formatter ->
  ?domains:int ->
  ?shrink:bool ->
  seed:int -> cases:int -> unit -> report
(** Run [cases] cases of each selected property ([props] defaults to the
    whole catalogue; unknown names are reported on [progress] and
    skipped).  Heavy properties (differential oracle, registry
    round-trips) run [cases / 8] cases.  A property that raises records a
    failure for that case rather than aborting the run.  [progress]
    receives one summary line per property. *)

val pp_report : Format.formatter -> report -> unit
