(* The property catalogue: metamorphic laws of the schedule IR and
   simulator, validator soundness against the independent reference
   checker, registry invariants, and the differential synthesis oracle.

   Each property draws its own inputs from the per-case RNG handed to it,
   so a (seed, property, case) triple fully determines the inputs — a
   failure report names exactly how to replay it. *)

module X = Syccl_util.Xrand
module Perm = Syccl_util.Perm
module Topology = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate
module Teccl = Syccl_teccl.Teccl
module Registry = Syccl_serve.Registry
module Synthesizer = Syccl.Synthesizer
module Transport = Syccl_sim.Transport
module Msccl_interp = Syccl_sim.Msccl_interp
module Fault = Syccl_topology.Fault
module Failover = Syccl_serve.Failover
module Reroute = Syccl.Reroute

type verdict = Pass | Skip of string | Fail of string

type ctx = { rng : X.t; domains : int; shrink : bool }

type prop = { name : string; heavy : bool; check : ctx -> verdict }

let failf fmt = Format.kasprintf (fun s -> Fail s) fmt

let pp_schedule s = Format.asprintf "%a" Schedule.pp s

(* Sequential-phase completion time, the accounting every comparator
   shares. *)
let sim_phases ?blocks topo schedules = Teccl.simulate ?blocks topo schedules

let rel_close ~tol a b =
  let denom = Float.max (Float.abs a) (Float.max (Float.abs b) 1e-30) in
  Float.abs (a -. b) <= tol *. denom

(* ------------------------------------------------------------------ *)
(* reverse is an involution — structurally and in simulated cost — and
   stays one under colliding/negative priorities. *)

let prop_reverse_involution ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Gen.schedules rng topo coll in
  let schedules =
    (* Half the time, stress the priority mirror with colliding and
       negative priorities. *)
    if X.bool rng then
      List.map
        (fun s ->
          match Gen.mutate rng topo Gen.Reprioritize s with
          | Some s' -> s'
          | None -> s)
        schedules
    else schedules
  in
  let rec go = function
    | [] -> Pass
    | s :: rest ->
        let rr = Schedule.reverse (Schedule.reverse s) in
        if rr <> s then
          failf "reverse (reverse s) <> s (priority mirror drifts)\n%s"
            (pp_schedule s)
        else
          let t = Sim.time topo s and t' = Sim.time topo rr in
          if not (rel_close ~tol:1e-12 t t') then
            failf "double-reverse cost %g <> %g" t' t
          else go rest
  in
  go schedules

(* ------------------------------------------------------------------ *)
(* scale is cost-linear in the bytes term: on zero-latency links, scaling
   every chunk by a power-of-two factor scales the simulated time exactly
   (block counts saturate, so the event structure is identical). *)

let prop_scale_linear ctx =
  let rng = ctx.rng in
  let topo = Gen.topology ~zero_alpha:true rng in
  let n = Topology.num_gpus topo in
  let kind = X.pick rng Gen.all_kinds in
  let root = X.int rng n in
  let peer =
    match kind with
    | Collective.SendRecv ->
        let p = X.int rng (n - 1) in
        if p >= root then p + 1 else p
    | _ -> 0
  in
  (* Size floor keeps every chunk's block count pinned at the maximum both
     before and after scaling, so only per-block bytes change. *)
  let coll =
    Collective.make ~root ~peer kind ~n ~size:(2048.0 +. X.float rng 1e4)
  in
  let schedules = Gen.schedules rng topo coll in
  let k = X.pick rng [| 0.5; 2.0; 4.0 |] in
  let rec go = function
    | [] -> Pass
    | s :: rest ->
        let t = Sim.time topo s in
        let t' = Sim.time topo (Schedule.scale s k) in
        if not (rel_close ~tol:1e-9 t' (k *. t)) then
          failf "scale %g: cost %g, expected %g (base %g)" k t' (k *. t) t
        else go rest
  in
  go schedules

(* ------------------------------------------------------------------ *)
(* union dominance.  The naive law — "a union never finishes before
   either part alone" — is FALSE for parts sharing ports: the simulator
   is a greedy list scheduler keyed on (avail, prio, ...), and extra
   traffic perturbs avail times, which can reorder a part's own
   transfers into a luckier tie-break than it gets alone (a Graham-style
   scheduling anomaly; this fuzzer found ~2% of shared-port cases off by
   up to ~15%).  What the synthesizer actually relies on (§5.3) is the
   port-DISJOINT case: a representative schedule transported onto
   disjoint isomorphic orbits and unioned.  There the parts cannot
   interact at all, so the union must cost exactly the max of the parts
   — an equality, checked as such.  For shared-port unions we keep the
   structural half: the union of two valid schedules stays valid. *)

let prop_union_dominates ctx =
  let rng = ctx.rng in
  (* Shared-port half: validity only. *)
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let c1 = Gen.collective rng ~n and c2 = Gen.collective rng ~n in
  let s1 = List.hd (Gen.schedules rng topo c1) in
  let s2 = List.hd (Gen.schedules rng topo c2) in
  match Validate.check topo (Schedule.union [ s1; s2 ]) with
  | Error e -> failf "union of two valid schedules fails validation: %s" e
  | Ok () ->
  (* Disjoint-orbit half: the same schedule (priorities colliding across
     parts by construction) on the two halves of a doubled switch. *)
  let m = X.pick rng [| 2; 3; 4 |] in
  let link = Gen.link rng in
  let small = Builders.single_switch ~name:"fuzz-orbit" ~n:m ~link () in
  let big = Builders.single_switch ~name:"fuzz-orbits" ~n:(2 * m) ~link () in
  let c = Gen.collective rng ~n:m in
  let part = List.hd (Gen.schedules rng small c) in
  let lo = Schedule.map_gpus part Fun.id in
  let hi = Schedule.map_gpus part (fun g -> g + m) in
  let u = Schedule.union [ lo; hi ] in
  match Validate.check big u with
  | Error e -> failf "disjoint-orbit union fails validation: %s" e
  | Ok () ->
      let tu = Sim.time big u in
      let t1 = Sim.time big lo and t2 = Sim.time big hi in
      let lo_t = Float.max t1 t2 in
      if not (rel_close ~tol:1e-9 tu lo_t) then
        failf "disjoint-orbit union cost %g differs from max of parts (%g, %g)"
          tu t1 t2
      else Pass

(* ------------------------------------------------------------------ *)
(* automorphism transport: relabelling GPUs through a topology
   automorphism preserves validity (against the transported demand) and
   simulated cost. *)

(* The endpoint-signature tag translation and relabelling now live in
   {!Syccl_sim.Transport} (failover warming ships schedules across fault
   orbits with it); the property exercises that production code path. *)
let prop_automorphism_transport ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let coll = Gen.collective rng ~n in
  let perms =
    Array.map
      (fun sz ->
        let a = Array.init sz Fun.id in
        X.shuffle rng a;
        a)
      topo.Topology.shape
  in
  let p = Topology.apply_axis_perms topo perms in
  if not (Topology.is_automorphism topo p) then
    Skip "per-axis permutation is not an automorphism here"
  else
    let schedules = Gen.schedules rng topo coll in
    let peer' =
      match coll.Collective.kind with
      | Collective.SendRecv -> Perm.apply p coll.Collective.peer
      | _ -> coll.Collective.peer
    in
    let coll' =
      Collective.make
        ~root:(Perm.apply p coll.Collective.root)
        ~peer:peer' coll.Collective.kind ~n ~size:coll.Collective.size
    in
    match Transport.schedules p coll coll' schedules with
    | None -> Skip "ambiguous demand chunk signature under permutation"
    | Some schedules' -> (
      match Validate.validate topo coll' schedules' with
      | Error e -> failf "transported schedule invalid: %s" e
      | Ok () ->
          let t = sim_phases topo schedules in
          let t' = sim_phases topo schedules' in
          if not (rel_close ~tol:1e-9 t t') then
            failf "transport changes cost: %g -> %g" t t'
          else Pass)

(* ------------------------------------------------------------------ *)
(* validator agreement on healthy schedules: everything the generators
   produce must satisfy the validator, the independent reference checker,
   and the simulator. *)

let prop_generators_agree ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Gen.schedules rng topo coll in
  match Validate.validate topo coll schedules with
  | Error e -> failf "generator schedule fails validator: %s" e
  | Ok () -> (
      match Refcheck.covers topo coll schedules with
      | Error e -> failf "generator schedule fails reference checker: %s" e
      | Ok () -> (
          match sim_phases topo schedules with
          | (_ : float) -> Pass
          | exception e ->
              failf "generator schedule fails simulator: %s"
                (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* validator soundness under mutation: any mutant the validator accepts
   must also satisfy the reference checker and complete in the simulator
   — a divergence means one of the two checkers has a hole.  The shrunk
   witness is reported when shrinking is on. *)

let mutant_escapes topo phase s =
  match Validate.covers topo phase s with
  | Error _ -> false
  | Ok () -> (
      match Refcheck.covers_phase phase s with
      | Error _ -> true
      | Ok () -> (
          match Sim.time topo s with
          | (_ : float) -> false
          | exception _ -> true))

let prop_mutant_soundness ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let phases = Collective.phases coll in
  let schedules = Gen.schedules rng topo coll in
  let i = X.int rng (List.length schedules) in
  let s = List.nth schedules i in
  let phase = List.nth phases i in
  let kind = Gen.mutation rng in
  match Gen.mutate rng topo kind s with
  | None -> Skip "mutation not applicable"
  | Some mutant -> (
      match Validate.covers topo phase mutant with
      | Error _ -> Pass (* the validator caught the mutation *)
      | Ok () -> (
          let escaped why =
            let witness =
              if ctx.shrink then
                Shrink.schedule ~still_fails:(mutant_escapes topo phase) mutant
              else mutant
            in
            failf "validator accepts a %s mutant but %s\n%s"
              (Gen.mutation_name kind) why (pp_schedule witness)
          in
          match Refcheck.covers_phase phase mutant with
          | Error e -> escaped ("reference checker rejects: " ^ e)
          | Ok () -> (
              match Sim.time topo mutant with
              | exception e ->
                  escaped ("simulator rejects: " ^ Printexc.to_string e)
              | (_ : float) -> (
                  match kind with
                  | Gen.Duplicate ->
                      (* A duplicated transfer is always detectable;
                         acceptance is a validator hole even if downstream
                         checkers cope. *)
                      failf "validator accepts a %s mutant\n%s"
                        (Gen.mutation_name kind) (pp_schedule mutant)
                  | _ -> Pass))))

(* ------------------------------------------------------------------ *)
(* reordering the transfer list is benign for validity: all validator
   judgements are fixpoints over sets, never over list position. *)

let prop_reorder_benign ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let phases = Collective.phases coll in
  let schedules = Gen.schedules rng topo coll in
  let i = X.int rng (List.length schedules) in
  let s = List.nth schedules i in
  let phase = List.nth phases i in
  let arr = Array.of_list s.Schedule.xfers in
  X.shuffle rng arr;
  let s' = { s with Schedule.xfers = Array.to_list arr } in
  match (Validate.covers topo phase s, Validate.covers topo phase s') with
  | Ok (), Ok () -> (
      match Sim.time topo s' with
      | (_ : float) -> Pass
      | exception e ->
          failf "reordered valid schedule fails simulator: %s"
            (Printexc.to_string e))
  | Error e, _ -> failf "generator schedule invalid before reorder: %s" e
  | Ok (), Error e -> failf "validity depends on transfer order: %s" e

(* ------------------------------------------------------------------ *)
(* registry fidelity: an entry stored at one simulator fidelity must
   survive a probe at another — demotion may only compare like for like. *)

let temp_registry_dir rng =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "syccl-fuzz-reg-%d-%d" (Unix.getpid ())
       (X.int rng 1_000_000_000))

let prop_registry_fidelity ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Syccl_baselines.Fallback.schedule topo coll in
  let b_store = X.pick rng [| 1; 2; 4; 8; 16 |] in
  let b_probe = X.pick rng [| 1; 2; 4; 8; 16 |] in
  let dir = temp_registry_dir rng in
  let reg = Registry.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Registry.destroy reg)
    (fun () ->
      let cost = sim_phases ~blocks:b_store topo schedules in
      Registry.store reg topo coll ~blocks:b_store ~cost
        ~chosen:"fuzz-fallback" schedules;
      match Registry.lookup reg ~blocks:b_probe topo coll with
      | None ->
          failf
            "entry stored at blocks=%d demoted when probed at blocks=%d"
            b_store b_probe
      | Some hit ->
          if hit.Registry.stored_blocks <> b_store then
            failf "hit reports stored_blocks=%d, stored at %d"
              hit.Registry.stored_blocks b_store
          else if
            not
              (rel_close ~tol:1e-9 hit.Registry.time
                 (sim_phases ~blocks:b_probe topo schedules))
          then
            failf "hit time %g is not the probe-fidelity resimulation"
              hit.Registry.time
          else Pass)

(* ------------------------------------------------------------------ *)
(* registry transport soundness: a hit transported from a symmetric root
   must simulate at exactly the source entry's cost on the source
   topology — the automorphism-transport law, observed end-to-end through
   the serving probe — and must carry the source entry's key. *)

let rooted_kinds =
  [|
    Collective.Broadcast; Collective.Scatter; Collective.Gather;
    Collective.Reduce;
  |]

let prop_registry_transport ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let src = Gen.collective ~kinds:rooted_kinds rng ~n in
  let src_root = src.Collective.root in
  (* Destination roots the probe can reach: images of the source root
     under the (healthy) stabilizer, excluding the source itself. *)
  let dsts =
    List.sort_uniq compare
      (List.filter_map
         (fun p ->
           let r = Perm.apply p src_root in
           if r = src_root then None else Some r)
         (Topology.stabilizer topo))
  in
  match dsts with
  | [] -> Skip "stabilizer fixes the source root"
  | _ -> (
      let dst_root = X.pick rng (Array.of_list dsts) in
      let dst =
        Collective.make ~root:dst_root ~peer:0 src.Collective.kind ~n
          ~size:src.Collective.size
      in
      let schedules = Syccl_baselines.Fallback.schedule topo src in
      let cost = sim_phases topo schedules in
      let dir = temp_registry_dir rng in
      let reg = Registry.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Registry.destroy reg)
        (fun () ->
          Registry.store reg topo src ~cost ~chosen:"fuzz-fallback" schedules;
          match Registry.probe reg topo dst with
          | Registry.Hit h ->
              if h.Registry.via <> Registry.Transported then
                failf "probe at root %d served via %s, expected transport"
                  dst_root (Registry.via_name h.Registry.via)
              else if h.Registry.hit_key <> Registry.key topo src then
                failf "transported hit reports key %s, source is %s"
                  h.Registry.hit_key (Registry.key topo src)
              else if not (rel_close ~tol:1e-9 h.Registry.time cost) then
                failf
                  "transport changes cost: source %g, transported %g"
                  cost h.Registry.time
              else Pass
          | Registry.Miss Registry.Transport_rejected ->
              (* Legitimate: ambiguous demand chunk signature, or the
                 fallback at the destination root beats the transport. *)
              Skip "transport rejected"
          | Registry.Miss r ->
              failf "probe at symmetric root %d missed (%s)" dst_root
                (Registry.miss_reason_name r)))

(* ------------------------------------------------------------------ *)
(* size_bucket is the exact power-of-two floor. *)

let prop_size_bucket ctx =
  let rng = ctx.rng in
  let s = Gen.size rng in
  let b = Registry.size_bucket s in
  if Float.ldexp 1.0 b <= s && s < Float.ldexp 1.0 (b + 1) then Pass
  else failf "size_bucket %.17g = %d, outside [2^%d, 2^%d)" s b b (b + 1)

(* ------------------------------------------------------------------ *)
(* differential synthesis oracle: the full pipeline (MILP refinement on)
   against greedy-only synthesis, TECCL, NCCL and the fallback ladder on
   the same demand.  Everything must validate; no comparator may beat the
   candidate beyond the screening tolerance. *)

let oracle_tolerance = 0.25
(* r1 screening keeps candidates within 20 % of the best; give the oracle
   a little slack on top so a legitimate tie broken the other way is not
   a counterexample. *)

let teccl_tolerance = 2.0
(* TECCL is a different contract: on the oracle's tiny instances its
   epoch MILP solves the whole problem near-optimally, and the sketch
   search legitimately trades that last factor for synthesis speed at
   scale (the paper's Fig. 15b tradeoff).  TECCL winning is expected;
   TECCL winning 3x would still mean the sketch space is missing
   something structural — that is the regression this bound catches. *)

let prop_oracle ctx =
  let rng = ctx.rng in
  let topo =
    (* Small instances only: the oracle solves four ways per case. *)
    let rec small tries =
      let t = Gen.topology rng in
      if Topology.num_gpus t <= 8 || tries > 10 then t else small (tries + 1)
    in
    small 0
  in
  let n = Topology.num_gpus topo in
  if n > 8 then Skip "no small topology drawn"
  else
    let kind = X.pick rng Gen.all_kinds in
    let root = X.int rng n in
    let peer =
      match kind with
      | Collective.SendRecv ->
          let p = X.int rng (n - 1) in
          if p >= root then p + 1 else p
      | _ -> 0
    in
    let coll =
      Collective.make ~root ~peer kind ~n
        ~size:(8.0 *. Float.exp (X.float rng (Float.log 1e4)))
    in
    let config =
      {
        Synthesizer.default_config with
        Synthesizer.domains = ctx.domains;
        deadline = Some 30.0;
      }
    in
    let candidate = Synthesizer.synthesize ~config topo coll in
    match Validate.validate topo coll candidate.Synthesizer.schedules with
    | Error e -> failf "oracle: candidate schedule invalid: %s" e
    | Ok () ->
        let fast =
          Synthesizer.synthesize
            ~config:{ config with Synthesizer.fast_only = true }
            topo coll
        in
        let teccl =
          Teccl.synthesize ~seed:(X.int rng 1_000_000) ~restarts:1
            ~time_budget:10.0 topo coll
        in
        let comparators =
          [ ("greedy", oracle_tolerance, Some fast.Synthesizer.schedules);
            ("teccl", teccl_tolerance, teccl.Teccl.schedules);
            ("nccl", oracle_tolerance,
             Some (Syccl_baselines.Nccl.schedule topo coll));
            ("fallback", oracle_tolerance,
             Some (Syccl_baselines.Fallback.schedule topo coll));
          ]
        in
        let rec check_all acc = function
          | [] -> Ok acc
          | (_, _, None) :: rest -> check_all acc rest
          | (name, tol, Some schedules) :: rest -> (
              match Validate.validate topo coll schedules with
              | Error e -> Error (name, e)
              | Ok () ->
                  check_all ((name, tol, sim_phases topo schedules) :: acc) rest)
        in
        (match check_all [] comparators with
        | Error (name, e) -> failf "oracle: %s baseline invalid: %s" name e
        | Ok timed ->
            let beaten =
              (* each comparator is held to its own screening tolerance *)
              List.filter
                (fun (_, tol, t) ->
                  candidate.Synthesizer.time > t *. (1.0 +. tol) +. 1e-12)
                timed
            in
            match
              (candidate.Synthesizer.degraded = Synthesizer.Full, beaten)
            with
            | false, _ | true, [] -> Pass
            | true, (best_name, _, best) :: _ ->
                failf
                  "oracle: %s beats the synthesizer beyond tolerance: %g vs \
                   %g (kind %s, n=%d, size %g)"
                  best_name best candidate.Synthesizer.time
                  (Collective.kind_name kind) n coll.Collective.size)

(* ------------------------------------------------------------------ *)
(* The revised sparse simplex agrees with the retired dense tableau (kept
   as Lp_dense, the differential oracle) on random LPs: same status, same
   objective within 1e-6, and the revised solution actually satisfies the
   constraints it claims to. *)

module Lp = Syccl_milp.Lp
module Lp_dense = Syccl_milp.Lp_dense

let pp_lp (p : Lp.problem) =
  let b = Buffer.create 128 in
  Buffer.add_string b "min [";
  Array.iter (fun c -> Buffer.add_string b (Printf.sprintf " %g" c)) p.objective;
  Buffer.add_string b " ]\n";
  List.iter
    (fun (terms, cmp, rhs) ->
      List.iter
        (fun (j, c) -> Buffer.add_string b (Printf.sprintf "%+gx%d " c j))
        terms;
      Buffer.add_string b
        (match cmp with Lp.Le -> "<= " | Lp.Ge -> ">= " | Lp.Eq -> "= ");
      Buffer.add_string b (Printf.sprintf "%g\n" rhs))
    p.rows;
  Buffer.contents b

let lp_status = function
  | Lp.Optimal _ -> "optimal"
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"
  | Lp.Iter_limit -> "iter_limit"

let lp_point_feasible (p : Lp.problem) x =
  Array.for_all (fun v -> v >= -1e-6) x
  && List.for_all
       (fun (terms, cmp, rhs) ->
         let lhs =
           List.fold_left (fun a (j, c) -> a +. (c *. x.(j))) 0.0 terms
         in
         match cmp with
         | Lp.Le -> lhs <= rhs +. 1e-6
         | Lp.Ge -> lhs >= rhs -. 1e-6
         | Lp.Eq -> Float.abs (lhs -. rhs) <= 1e-6)
       p.rows

let prop_lp_differential ctx =
  let p = Gen.lp ctx.rng in
  match (Lp_dense.solve p, Lp.solve p) with
  | Lp.Iter_limit, _ | _, Lp.Iter_limit -> Skip "iteration limit"
  | Lp.Optimal { obj = da; _ }, Lp.Optimal { obj = ra; x } ->
      (* Absolute-or-relative: optima at exactly 0.0 vs one rounding ulp
         away must not count as a divergence. *)
      let close a b =
        Float.abs (a -. b)
        <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))
      in
      if not (lp_point_feasible p x) then
        failf "lp-differential: revised optimum violates constraints\n%s"
          (pp_lp p)
      else if not (close da ra) then
        failf "lp-differential: objectives differ: dense %.9g, revised %.9g\n%s"
          da ra (pp_lp p)
      else Pass
  | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> Pass
  | dense, revised ->
      failf "lp-differential: status disagrees: dense %s, revised %s\n%s"
        (lp_status dense) (lp_status revised) (pp_lp p)

(* ------------------------------------------------------------------ *)
(* sim differential: the production simulator against the verbatim
   pre-rewrite one (Sim_ref), plus soundness of the port-load bound that
   screening prunes with.  Heap entries are totally ordered by
   (avail, prio, transfer, block) and each block is in at most one queue,
   so any correct heap pops the same sequence: time, events and every
   transfer's finish must agree bit for bit, and failing schedules
   (deadlocks, event-cap overruns) must fail with the same message.
   Inputs: valid schedule sets, their shared-port union, and stacked
   mutants, at a random block count. *)

let bits = Int64.bits_of_float

let same_report (a : Sim.report) (b : Sim.report) =
  bits a.Sim.time = bits b.Sim.time
  && a.Sim.events = b.Sim.events
  && Array.length a.Sim.xfer_finish = Array.length b.Sim.xfer_finish
  && Array.for_all2
       (fun x y -> bits x = bits y)
       a.Sim.xfer_finish b.Sim.xfer_finish

let outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

(* Up to [max] random mutations stacked on one schedule. *)
let mutants rng topo ~max s =
  let rec go k s =
    if k = 0 then s
    else
      match Gen.mutate rng topo (Gen.mutation rng) s with
      | Some s' -> go (k - 1) s'
      | None -> go (k - 1) s
  in
  go (X.int rng (max + 1)) s

let prop_sim_differential ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Gen.schedules rng topo coll in
  let schedules =
    if X.int rng 4 = 0 then [ Schedule.union schedules ] else schedules
  in
  let blocks = X.pick rng [| 1; 2; 3; 8; 16 |] in
  let rec go = function
    | [] -> Pass
    | s :: rest -> (
        let s = mutants rng topo ~max:3 s in
        let got = outcome (fun () -> Sim.run ~blocks topo s) in
        let want = outcome (fun () -> Sim_ref.run ~blocks topo s) in
        match (got, want) with
        | Ok a, Ok b when same_report a b ->
            let bound = Sim.lower_bound ~blocks topo s in
            if bound > a.Sim.time then
              failf "sim-differential: port-load bound %h exceeds makespan %h\n%s"
                bound a.Sim.time (pp_schedule s)
            else go rest
        | Error a, Error b when a = b -> go rest
        | _ ->
            let show = function
              | Ok (r : Sim.report) ->
                  Printf.sprintf "time %h, %d events" r.Sim.time r.Sim.events
              | Error e -> "raised " ^ e
            in
            failf "sim-differential (blocks %d): Sim %s, Sim_ref %s\n%s" blocks
              (show got) (show want) (pp_schedule s))
  in
  go schedules

(* ------------------------------------------------------------------ *)
(* validate differential: the production validator against the verbatim
   pre-rewrite one (Validate_ref) — identical Ok/Error and identical error
   strings from check, covers (against the schedule's own phase and a
   mismatched demand) and validate, on valid schedule sets and stacked
   mutants. *)

let prop_validate_differential ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let coll = Gen.collective rng ~n in
  let other = Gen.collective rng ~n in
  (* Redraw one chunk's [initial] set: contributor-free relays in reduce
     chains and multi-holder gathers are where the closure walks differ
     from the reference fixpoints, and valid baselines rarely have them. *)
  let reseed (s : Schedule.t) =
    let nc = Array.length s.Schedule.chunks in
    if nc = 0 then s
    else begin
      let c = X.int rng nc in
      let chunks = Array.copy s.Schedule.chunks in
      let m = chunks.(c) in
      let initial =
        List.filter (fun _ -> X.bool rng) (List.init n Fun.id)
        |> function [] -> [ X.int rng n ] | l -> l
      in
      chunks.(c) <- { m with Schedule.initial };
      { s with Schedule.chunks }
    end
  in
  let schedules =
    List.map
      (fun s ->
        let s = if X.int rng 4 = 0 then reseed s else s in
        if X.bool rng then mutants rng topo ~max:3 s else s)
      (Gen.schedules rng topo coll)
  in
  let agree what f g =
    let a = outcome f and b = outcome g in
    if a = b then None
    else
      let show = function
        | Ok (Ok ()) -> "Ok"
        | Ok (Error e) -> "Error " ^ e
        | Error e -> "raised " ^ e
      in
      Some (Printf.sprintf "%s: Validate %s, Validate_ref %s" what (show a) (show b))
  in
  let per_schedule i s =
    let phase = List.nth_opt (Collective.phases coll) i in
    [
      agree "check" (fun () -> Validate.check topo s)
        (fun () -> Validate_ref.check topo s);
      agree "covers (mismatched demand)"
        (fun () -> Validate.covers topo other s)
        (fun () -> Validate_ref.covers topo other s);
    ]
    @
    match phase with
    | None -> []
    | Some phase ->
        [
          agree "covers" (fun () -> Validate.covers topo phase s)
            (fun () -> Validate_ref.covers topo phase s);
        ]
  in
  let diffs =
    agree "validate"
      (fun () -> Validate.validate topo coll schedules)
      (fun () -> Validate_ref.validate topo coll schedules)
    :: List.concat (List.mapi per_schedule schedules)
  in
  match List.filter_map Fun.id diffs with
  | [] -> Pass
  | d :: _ ->
      failf "validate-differential: %s\n%s" d
        (String.concat "\n" (List.map pp_schedule schedules))

(* ------------------------------------------------------------------ *)
(* degraded validity: whatever rung of the ladder serves a punctured
   topology, the result must validate on the punctured topology — a
   degraded schedule crossing a dead link would be an outage dressed up
   as an answer.  A clean refusal (Failure: the faults disconnect a
   demand) is acceptable; an invalid schedule is not. *)

let draw_faults rng topo ~max_elts =
  let elts = Array.of_list (Failover.link_elements topo) in
  if Array.length elts = 0 then None
  else begin
    X.shuffle rng elts;
    let k = 1 + X.int rng (min max_elts (Array.length elts)) in
    Some (Fault.of_list (Array.to_list (Array.sub elts 0 k)))
  end

let prop_degraded_validity ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  match draw_faults rng topo ~max_elts:2 with
  | None -> Skip "topology has no intra-group links"
  | Some faults -> (
      let punctured = Topology.puncture topo faults in
      let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
      let config =
        {
          Synthesizer.default_config with
          Synthesizer.fast_only = true;
          domains = ctx.domains;
          deadline = Some 20.0;
        }
      in
      match Synthesizer.synthesize ~config punctured coll with
      | exception Failure _ -> Skip "faults disconnect the demand"
      | o -> (
          match Validate.validate punctured coll o.Synthesizer.schedules with
          | Ok () -> Pass
          | Error e ->
              failf
                "degraded (%s rung) schedule invalid on punctured topology \
                 [%s]: %s"
                (Synthesizer.level_name o.Synthesizer.degraded)
                (Fault.encode faults) e))

(* ------------------------------------------------------------------ *)
(* fault-orbit transport invariance: a schedule rerouted around fault set
   F, transported along an automorphism p of the healthy topology that
   preserves the collective, is a valid equal-cost schedule for fault set
   p(F).  This is the law failover warming (syccl warm --faults K) leans
   on to synthesize one orbit representative and ship it to the rest. *)

let prop_fault_orbit_transport ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  match draw_faults rng topo ~max_elts:2 with
  | None -> Skip "topology has no intra-group links"
  | Some faults -> (
      let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
      let schedules = Gen.schedules rng topo coll in
      let punctured = Topology.puncture topo faults in
      match Reroute.schedules punctured schedules with
      | exception Failure _ -> Skip "faults disconnect a delivery"
      | rerouted -> (
          match Validate.validate punctured coll rerouted with
          | Error e -> failf "rerouted schedule invalid: %s" e
          | Ok () -> (
              let group = Array.of_list (Failover.symmetry_group topo coll) in
              let p = X.pick rng group in
              let faults' = Fault.map p faults in
              let punctured' = Topology.puncture topo faults' in
              match Transport.schedules p coll coll rerouted with
              | None -> Skip "ambiguous demand chunk signature"
              | Some transported -> (
                  match Validate.validate punctured' coll transported with
                  | Error e ->
                      failf
                        "transported schedule invalid on fault orbit image \
                         [%s]: %s"
                        (Fault.encode faults') e
                  | Ok () ->
                      let t = sim_phases punctured rerouted in
                      let t' = sim_phases punctured' transported in
                      if not (rel_close ~tol:1e-9 t t') then
                        failf "fault-orbit transport changes cost: %g -> %g" t
                          t'
                      else Pass))))

(* ------------------------------------------------------------------ *)
(* canon differential: the one-pass canonical form (Subsolver.canon) against
   the verbatim pre-rewrite canonicalization (Subsolver_ref), on the merged
   sub-demands of random combos' plans, healthy or punctured.  The two
   class keys must partition the demands identically (absolute and
   size-normalized); transferring a class representative's solution onto
   every member, onto a demand of another class and onto a rescaled copy
   must give identical schedules (absolute and normalized mappings, with
   precomputed forms or without); and verify must give identical verdicts
   on mutated transfer lists. *)

module Subsolver = Syccl.Subsolver

let plan_demands rng topo =
  let n = Topology.num_gpus topo in
  let phase =
    Gen.collective rng ~n
      ~kinds:
        Collective.
          [| Broadcast; Scatter; Gather; Reduce; AllGather; AllToAll;
             ReduceScatter |]
  in
  let prims = Collective.decompose phase in
  let p0 = List.hd prims in
  let kind = p0.Collective.p_kind in
  let sketches =
    Syccl.Search.run ~config:(Syccl.Search.default topo kind) topo ~kind
      ~root:p0.Collective.p_root
    |> List.filteri (fun i _ -> i < 6)
  in
  let combos =
    if List.length prims > 1 then
      Syccl.Combine.combos_all_to_all ~max_combos:4 topo sketches
    else Syccl.Combine.combos_one_to_all ~max_combos:4 topo sketches
  in
  List.concat_map
    (fun c -> (Subsolver.plan topo phase c).Subsolver.demands)
    combos

(* Same demand with every entry size scaled: equal normalized keys, a
   different size bucket — the cross-size memo case. *)
let rescale f (d : Subsolver.demand) =
  {
    d with
    Subsolver.entries =
      List.map
        (fun (e : Subsolver.entry) ->
          { e with Subsolver.e_size = f *. e.Subsolver.e_size })
        d.Subsolver.entries;
  }

let mutate_xfers rng topo (xs : Schedule.xfer list) ~entries =
  let a = Array.of_list xs in
  let nx = Array.length a in
  if nx = 0 then xs
  else
    let i = X.int rng nx in
    let x = a.(i) in
    let replace y = List.mapi (fun j z -> if j = i then y else z) xs in
    match X.int rng 7 with
    | 0 -> List.filteri (fun j _ -> j <> i) xs
    | 1 -> x :: xs
    | 2 -> replace { x with Schedule.src = x.Schedule.dst; dst = x.Schedule.src }
    | 3 -> replace { x with Schedule.dst = X.int rng (Topology.num_gpus topo) }
    | 4 -> replace { x with Schedule.chunk = X.int rng (entries + 1) }
    | 5 -> replace { x with Schedule.dim = X.int rng (Topology.num_dims topo) }
    | _ -> List.rev xs

let prop_canon_differential ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let topo =
    if X.int rng 3 = 0 then
      match draw_faults rng topo ~max_elts:2 with
      | Some f -> Topology.puncture topo f
      | None -> topo
    else topo
  in
  let demands = Array.of_list (plan_demands rng topo) in
  if Array.length demands = 0 then Skip "no combination"
  else
    let partition knew kold =
      let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
      Array.for_all
        (fun d ->
          let kn = knew topo d and ko = kold topo d in
          let agree tbl k v =
            match Hashtbl.find_opt tbl k with
            | Some v' -> v = v'
            | None ->
                Hashtbl.replace tbl k v;
                true
          in
          agree fwd ko kn && agree bwd kn ko)
        demands
    in
    if not (partition Subsolver.class_key Subsolver_ref.class_key) then
      failf "canon-differential: class partitions differ on %s" topo.Topology.name
    else if
      not
        (partition
           (fun topo d -> Subsolver.key (Subsolver.canon ~normalized:true topo d))
           Subsolver_ref.norm_class_key)
    then
      failf "canon-differential: normalized class partitions differ on %s"
        topo.Topology.name
    else begin
      let classes = Hashtbl.create 16 in
      Array.iter
        (fun d ->
          let k = Subsolver_ref.class_key topo d in
          Hashtbl.replace classes k
            (d :: Option.value (Hashtbl.find_opt classes k) ~default:[]))
        demands;
      let show (d : Subsolver.demand) =
        Printf.sprintf "demand (stage %d, dim %d, group %d, %d entries)"
          d.Subsolver.d_stage d.Subsolver.d_dim d.Subsolver.d_group
          (List.length d.Subsolver.entries)
      in
      let same normalized ~rep ~rep_xfers d =
        let want = Subsolver_ref.transfer ~normalized topo ~rep ~rep_xfers d in
        let rc = Subsolver.canon ~normalized topo rep
        and dc = Subsolver.canon ~normalized topo d in
        let got =
          [
            Subsolver.transfer ~normalized topo ~rep ~rep_xfers d;
            Subsolver.transfer ~normalized ~rc ~dc topo ~rep ~rep_xfers d;
          ]
        in
        List.for_all
          (fun g ->
            match (g, want) with
            | (Subsolver.Identity a | Subsolver.Mapped a), Some b -> a = b
            | Subsolver.Unmapped, None -> true
            | _ -> false)
          got
      in
      let failure = ref None in
      let fail fmt =
        Format.kasprintf (fun m -> if !failure = None then failure := Some m) fmt
      in
      let reps = Hashtbl.fold (fun _ ds acc -> List.rev ds :: acc) classes [] in
      List.iteri
        (fun ci members ->
          if ci < 12 then
            let rep = List.hd members in
            match Subsolver.solve_demand Subsolver.Fast_only topo rep with
            | exception Failure _ -> ()
            | rep_xfers ->
                let other = demands.(X.int rng (Array.length demands)) in
                let scaled = rescale (X.pick rng [| 0.5; 3.0; 1024.0 |]) in
                let member = List.nth members (X.int rng (List.length members)) in
                let targets =
                  List.filteri (fun i _ -> i < 8) members
                  @ [ other; scaled rep; scaled member ]
                in
                List.iter
                  (fun d ->
                    if not (same false ~rep ~rep_xfers d) then
                      fail "transfer differs from reference: %s -> %s" (show rep)
                        (show d);
                    if not (same true ~rep ~rep_xfers d) then
                      fail "normalized transfer differs from reference: %s -> %s"
                        (show rep) (show d))
                  targets;
                let entries = List.length rep.Subsolver.entries in
                let xs = ref rep_xfers in
                for _ = 1 to 4 do
                  xs := mutate_xfers rng topo !xs ~entries;
                  let a = Subsolver.verify topo rep !xs
                  and b = Subsolver_ref.verify topo rep !xs in
                  if a <> b then
                    fail "verify %b, reference %b on %s:\n%s" a b (show rep)
                      (String.concat "; "
                         (List.map
                            (fun (x : Schedule.xfer) ->
                              Printf.sprintf "c%d %d>%d d%d" x.Schedule.chunk
                                x.Schedule.src x.Schedule.dst x.Schedule.dim)
                            !xs))
                done)
        reps;
      match !failure with
      | Some m -> failf "canon-differential on %s: %s" topo.Topology.name m
      | None -> Pass
    end

(* ------------------------------------------------------------------ *)
(* executor-level lowering oracle: lowering any valid schedule to MSCCL
   XML, parsing it back and replaying it step-by-step under executor
   semantics reproduces exactly the reference checker's verdict of the
   demand — at any channel count.  This is the second differential oracle
   of ROADMAP 5(a): it checks threadblock layout, FIFO connection pairing
   and cross-threadblock dependency edges, which no schedule-level checker
   sees. *)

let lowering_diverges ~channels phase s =
  match Refcheck.covers_phase phase s with
  | Error _ -> false (* the schedule itself is wrong; not a lowering bug *)
  | Ok () ->
      Result.is_error (Msccl_interp.check_lowering ~channels ~coll:phase [ s ])

let prop_lower_replay ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let phases = Collective.phases coll in
  let schedules = Gen.schedules rng topo coll in
  let channels = X.pick rng [| 1; 2; 4 |] in
  let rec go pairs =
    match pairs with
    | [] -> Pass
    | (phase, s) :: rest -> (
        match Refcheck.covers_phase phase s with
        | Error e -> failf "generator schedule fails reference checker: %s" e
        | Ok () ->
            if lowering_diverges ~channels phase s then
              let witness =
                if ctx.shrink then
                  Shrink.schedule
                    ~still_fails:(lowering_diverges ~channels phase)
                    s
                else s
              in
              let why =
                match
                  Msccl_interp.check_lowering ~channels ~coll:phase [ witness ]
                with
                | Error e -> e
                | Ok () -> "(witness passes after shrinking; original diverged)"
              in
              failf "lower-replay (channels=%d): %s\n%s" channels why
                (pp_schedule witness)
            else go rest)
  in
  go (List.combine phases schedules)

(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "reverse-involution"; heavy = false; check = prop_reverse_involution };
    { name = "scale-linear"; heavy = false; check = prop_scale_linear };
    { name = "union-dominates"; heavy = false; check = prop_union_dominates };
    { name = "automorphism-transport"; heavy = false;
      check = prop_automorphism_transport };
    { name = "generators-agree"; heavy = false; check = prop_generators_agree };
    { name = "mutant-soundness"; heavy = false; check = prop_mutant_soundness };
    { name = "reorder-benign"; heavy = false; check = prop_reorder_benign };
    { name = "registry-fidelity"; heavy = true; check = prop_registry_fidelity };
    { name = "registry-transport"; heavy = true;
      check = prop_registry_transport };
    { name = "size-bucket"; heavy = false; check = prop_size_bucket };
    { name = "lp-differential"; heavy = false; check = prop_lp_differential };
    { name = "sim-differential"; heavy = false; check = prop_sim_differential };
    { name = "validate-differential"; heavy = false;
      check = prop_validate_differential };
    { name = "canon-differential"; heavy = false;
      check = prop_canon_differential };
    { name = "degraded-validity"; heavy = true; check = prop_degraded_validity };
    { name = "fault-orbit-transport"; heavy = false;
      check = prop_fault_orbit_transport };
    { name = "lower-replay"; heavy = false; check = prop_lower_replay };
    { name = "oracle"; heavy = true; check = prop_oracle };
  ]

let names = List.map (fun p -> p.name) all

let find name = List.find_opt (fun p -> p.name = name) all
