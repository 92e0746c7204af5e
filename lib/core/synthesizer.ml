module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Pool = Syccl_util.Pool
module Cache = Syccl_util.Cache
module Counters = Syccl_util.Counters
module Clock = Syccl_util.Clock
module Trace = Syccl_util.Trace
module Budget = Syccl_util.Budget

type config = {
  search_config : Search.config option;
  e1 : float;
  e2 : float;
  r1 : float;
  r2 : int;
  fast_only : bool;
  milp_var_budget : int;
  milp_node_limit : int;
  milp_time_limit : float;
  max_shapes : int;
  max_combos : int;
  domains : int;
  blocks : int;
  deadline : float option;
}

let default_config =
  {
    search_config = None;
    e1 = 3.0;
    e2 = 0.5;
    r1 = 0.20;
    r2 = 8;
    fast_only = false;
    milp_var_budget = 1100;
    milp_node_limit = 60;
    milp_time_limit = 6.0;
    max_shapes = 18;
    max_combos = 64;
    domains = 1;
    blocks = 8;
    deadline = None;
  }

type level = Full | Fast | Rerouted | Fallback

let level_name = function
  | Full -> "full"
  | Fast -> "fast"
  | Rerouted -> "rerouted"
  | Fallback -> "fallback"

type breakdown = {
  search_s : float;
  combine_s : float;
  solve1_s : float;
  solve2_s : float;
  cache_hits : int;
  cache_misses : int;
  milp_solves : int;
  milp_nodes : int;
  flow_certified : int;
  registry_hits : int;
  registry_misses : int;
}

type outcome = {
  schedules : Schedule.t list;
  time : float;
  busbw : float;
  synth_time : float;
  breakdown : breakdown;
  num_sketches : int;
  num_combos : int;
  chosen : string;
  degraded : level;
  degrade_reason : string option;
}

let zero_breakdown =
  {
    search_s = 0.0;
    combine_s = 0.0;
    solve1_s = 0.0;
    solve2_s = 0.0;
    cache_hits = 0;
    cache_misses = 0;
    milp_solves = 0;
    milp_nodes = 0;
    flow_certified = 0;
    registry_hits = 0;
    registry_misses = 0;
  }

let add_breakdown a b =
  {
    search_s = a.search_s +. b.search_s;
    combine_s = a.combine_s +. b.combine_s;
    solve1_s = a.solve1_s +. b.solve1_s;
    solve2_s = a.solve2_s +. b.solve2_s;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    milp_solves = a.milp_solves + b.milp_solves;
    milp_nodes = a.milp_nodes + b.milp_nodes;
    flow_certified = a.flow_certified + b.flow_certified;
    registry_hits = a.registry_hits + b.registry_hits;
    registry_misses = a.registry_misses + b.registry_misses;
  }

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* Cross-size sub-solve memoization (bounded, domain-safe): solved class
   representatives keyed by size-normalized class key, strategy signature
   and a power-of-two chunk-size bucket.  Hits skip Subsolver.solve_demand
   entirely — across combos, across the coarse/fine steps and across sweep
   sizes whose epoch structure is size-independent.  Each entry keeps the
   representative's normalized canonical form, so a hit maps without
   canonicalizing it again. *)
type memo_entry = Subsolver.demand * Subsolver.canon * Schedule.xfer list

let subsolve_cache : (string, memo_entry) Cache.t =
  Cache.create ~capacity:4096 ~name:"cache.subsolve" ()

let size_bucket (d : Subsolver.demand) =
  let m =
    List.fold_left
      (fun a (e : Subsolver.entry) -> Float.max a e.Subsolver.e_size)
      0.0 d.Subsolver.entries
  in
  if m <= 0.0 then 0
  else int_of_float (Float.floor ((Float.log m /. Float.log 2.0) +. 1e-9))

let memo_key strategy topo d norm =
  Printf.sprintf "%s/%d/%s/%d/%s" topo.Topology.name (Topology.num_gpus topo)
    (Subsolver.strategy_signature strategy)
    (size_bucket d) (Subsolver.key norm)

(* A view of the sub-solve memo.  [live_memo] reads and writes the shared
   bounded cache directly; [synthesize_all] gives each sweep element a
   snapshot-overlay view instead, so a sweep's results depend only on the
   cache state at sweep start — never on sibling elements' mid-flight
   insertions (see [synthesize_all]). *)
type memo_view = {
  memo_find : string -> memo_entry option;
  memo_put : string -> memo_entry -> unit;
}

let live_memo =
  {
    memo_find = (fun k -> Cache.find_opt subsolve_cache k);
    memo_put = (fun k v -> Cache.put subsolve_cache k v);
  }

(* Structural hash table of demands: plans of one call share many
   structurally equal demands (combos repeat sketches), and each distinct
   one is canonicalized once. *)
module Demand_tbl = Hashtbl.Make (struct
  type t = Subsolver.demand

  let equal = ( = )

  let hash (d : Subsolver.demand) =
    List.fold_left
      (fun h (e : Subsolver.entry) ->
        let h = (h * 31) + e.Subsolver.chunk in
        let h = (h * 31) + Hashtbl.hash e.Subsolver.e_size in
        let h = List.fold_left (fun h v -> (h * 31) + v) h e.Subsolver.e_srcs in
        List.fold_left (fun h v -> (h * 37) + v) h e.Subsolver.e_dsts)
      ((d.Subsolver.d_stage * 65599) + (d.Subsolver.d_dim * 257) + d.Subsolver.d_group)
      d.Subsolver.entries
    land max_int
end)

(* Solve representatives of every isomorphism class appearing in [plans],
   in parallel on the pool, and return a per-demand solution function.
   Every distinct demand is canonicalized once, while classifying; the
   returned lookup reuses that form to find its class and to map the
   representative's solution, so the symmetry mapping costs one
   canonicalization per distinct demand (plus one normalized form per
   class for the memo).  Classes are visited in order of first appearance.
   The memo probe runs sequentially before dispatch and insertions happen
   after every solve returns, so which classes hit the cache — and hence
   the produced schedules — cannot depend on pool size or scheduling. *)
let solve_plans ~pool ~memo ~budget ?warm strategy topo
    (plans : Subsolver.plan list) =
  (* Warm-basis handoff between same-class MILP solves within this call
     (first-writer-wins keys scoped by class, see Subsolver.solve_demand);
     one cache per call so sweeps and repeated synthesize runs start from
     the same (empty) state and stay reproducible. *)
  let milp_warm : (string, Syccl_milp.Lp.basis_state) Cache.t =
    Cache.create ~capacity:64 ~name:"cache.milp_warm" ()
  in
  let forms = Demand_tbl.create 256 in
  (* class key -> index into [reps] *)
  let classes = Hashtbl.create 64 and firsts = ref [] and nclass = ref 0 in
  List.iter
    (fun (p : Subsolver.plan) ->
      List.iter
        (fun d ->
          if not (Demand_tbl.mem forms d) then begin
            let c = Subsolver.canon topo d in
            Demand_tbl.add forms d c;
            let k = Subsolver.key c in
            if not (Hashtbl.mem classes k) then begin
              Hashtbl.replace classes k !nclass;
              incr nclass;
              firsts := (d, c) :: !firsts
            end
          end)
        p.Subsolver.demands)
    plans;
  let reps = Array.of_list (List.rev !firsts) and nclass = !nclass in
  let norms = Array.map (fun (d, _) -> Subsolver.canon ~normalized:true topo d) reps in
  let mkeys = Array.mapi (fun i (d, _) -> memo_key strategy topo d norms.(i)) reps in
  let sols = Array.make nclass None in
  Array.iteri
    (fun i (rep, _) ->
      match memo.memo_find mkeys.(i) with
      | Some (crep, cnorm, cxfers) -> (
          match
            Subsolver.transfer ~normalized:true ~rc:cnorm ~dc:norms.(i) topo
              ~rep:crep ~rep_xfers:cxfers rep
          with
          | Subsolver.Identity xfers -> sols.(i) <- Some xfers
          | Subsolver.Mapped xfers ->
              (* A cross-size/cross-group mapping's quality is only bounded
                 by the direct-baseline guard — a cached solution refined
                 for a different chunk size may be valid yet slower than
                 solving here, so reuse it only when it at least matches
                 the direct candidate. *)
              if Subsolver.no_worse_than_direct topo rep xfers then
                sols.(i) <- Some xfers
              else Counters.bump "cache.subsolve.quality_fail"
          | Subsolver.Unmapped -> Counters.bump "cache.subsolve.transfer_fail")
      | None -> ())
    reps;
  let todo =
    Array.of_list
      (List.filter (fun i -> sols.(i) = None) (List.init nclass Fun.id))
  in
  let solved =
    Pool.map pool
      (fun i ->
        let rep, c = reps.(i) in
        let w = match warm with None -> None | Some f -> f rep in
        (* Each solve gets a detached view of the element's budget (same
           deadline, own degradation mark) so we can tell, per class, whether
           the deadline forced a degraded solution. *)
        let b = Budget.detach budget in
        let xfers =
          Subsolver.solve_demand ?warm:w ~budget:b ~pool
            ~cache:(milp_warm, Subsolver.key c) strategy topo rep
        in
        if Budget.degraded b then Budget.mark_degraded budget;
        (xfers, Budget.degraded b))
      todo
  in
  Array.iteri
    (fun j i ->
      let xfers, was_degraded = solved.(j) in
      sols.(i) <- Some xfers;
      (* A deadline-degraded sub-solve (skipped MILP, greedy cut short)
         must not be memoized: the memo outlives the deadline and would
         replay the degraded solution into later unconstrained runs. *)
      if not was_degraded then
        memo.memo_put mkeys.(i) (fst reps.(i), norms.(i), xfers))
    todo;
  (* Read-only from here on: the lookup runs concurrently on the pool. *)
  fun (d : Subsolver.demand) ->
    let c =
      match Demand_tbl.find_opt forms d with
      | Some c -> c
      | None -> Subsolver.canon topo d
    in
    let direct () =
      Subsolver.solve_demand ~budget ~pool
        ~cache:(milp_warm, Subsolver.key c) strategy topo d
    in
    match Hashtbl.find_opt classes (Subsolver.key c) with
    | Some i -> (
        let rep, rc = reps.(i) in
        match
          Subsolver.transfer ~rc ~dc:c topo ~rep ~rep_xfers:(Option.get sols.(i)) d
        with
        | Subsolver.Identity xfers | Subsolver.Mapped xfers -> xfers
        | Subsolver.Unmapped -> direct ())
    | None -> direct ()

let strategy_of cfg ~e =
  if cfg.fast_only then Subsolver.Fast_only
  else
    Subsolver.Milp_refine
      {
        e;
        var_budget = cfg.milp_var_budget;
        node_limit = cfg.milp_node_limit;
        time_limit = cfg.milp_time_limit;
      }

(* Sketch search depends only on (topology, kind, root, config) — not on the
   data size — so sweeps over sizes reuse it.  Both caches are bounded and
   mutex-protected: concurrent synthesize calls (the parallel sweep driver)
   share them safely. *)
let search_cache : (string, Sketch.t list) Cache.t =
  Cache.create ~capacity:256 ~name:"cache.search" ()

let combo_cache : (string, Combine.combo list) Cache.t =
  Cache.create ~capacity:256 ~name:"cache.combo" ()

let reset_caches () =
  Cache.clear search_cache;
  Cache.clear combo_cache;
  Cache.clear subsolve_cache

let cached_search ~budget topo ~config ~kind ~root =
  let key =
    Format.asprintf "%s/%d/%s/%d/%d/%b/%b/%d/%d"
      topo.Topology.name (Topology.num_gpus topo)
      (match kind with `Broadcast -> "b" | `Scatter -> "s")
      root config.Search.max_stages config.Search.prune_isomorphic
      config.Search.prune_consistency
      (Option.value config.Search.relay_limit ~default:(-1))
      config.Search.max_sketches
  in
  match Cache.find_opt search_cache key with
  | Some r -> r
  | None ->
      (* A deadline-truncated sketch list depends on where the deadline
         fell; the cache outlives the deadline, so never memoize one. *)
      let truncated = ref false in
      let r = Search.run ~config ~budget ~truncated topo ~kind ~root in
      if not !truncated then Cache.put search_cache key r;
      r

(* SendRecv needs no sketch machinery: one chunk, one destination.  Compare
   the direct path (each shared dimension) against two-hop relays and keep
   the fastest. *)
let synth_sendrecv cfg topo (phase : Collective.t) =
  let src = phase.Collective.root and dst = phase.Collective.peer in
  let meta =
    {
      Schedule.size = phase.Collective.size;
      mode = `Gather;
      initial = [ src ];
      wanted = [ dst ];
      tag = 0;
    }
  in
  let dims_between u v =
    List.filter
      (fun d ->
        Topology.group_of topo ~dim:d u = Topology.group_of topo ~dim:d v
        && Topology.edge_alive topo ~dim:d u v)
      (List.init (Topology.num_dims topo) (fun d -> d))
  in
  let direct =
    List.map
      (fun d ->
        { Schedule.chunks = [| meta |];
          xfers = [ { Schedule.chunk = 0; src; dst; dim = d; prio = 0 } ] })
      (dims_between src dst)
  in
  let relays =
    List.concat_map
      (fun r ->
        if r = src || r = dst then []
        else
          match (dims_between src r, dims_between r dst) with
          | d1 :: _, d2 :: _ ->
              [
                { Schedule.chunks = [| meta |];
                  xfers =
                    [
                      { Schedule.chunk = 0; src; dst = r; dim = d1; prio = 0 };
                      { Schedule.chunk = 0; src = r; dst; dim = d2; prio = 1 };
                    ] };
              ]
          | _ -> [])
      (List.init (Topology.num_gpus topo) (fun v -> v))
  in
  let best =
    List.fold_left
      (fun acc s ->
        let t = Sim.time ~blocks:cfg.blocks topo s in
        match acc with Some (_, tb) when tb <= t -> acc | _ -> Some (s, t))
      None (direct @ relays)
  in
  match best with
  | Some (s, t) ->
      (s, t, zero_breakdown, 0, List.length direct + List.length relays, "sendrecv")
  | None -> failwith "Synthesizer: peers are not connected"

(* Screening simulation with port-load pruning.  Candidates are simulated
   in ascending order of their exact lower bound ({!Sim.lower_bound}), one
   pool-width batch at a time; a candidate whose bound already exceeds the
   best simulated time so far × (1 + r1) could never pass the R1 filter
   (its time ≥ bound > incumbent × (1 + r1) ≥ best × (1 + r1)), so it is
   not simulated and gets time [infinity].  The survivor set, and so the
   chosen schedule, is the same as simulating everything; only the
   [sim.pruned] count depends on the pool width. *)
let screen ~pool ~r1 ~blocks topo candidates =
  let order = Array.init (Array.length candidates) Fun.id in
  Array.stable_sort
    (fun i j ->
      let _, _, _, a = candidates.(i) and _, _, _, b = candidates.(j) in
      Float.compare a b)
    order;
  let times = Array.make (Array.length candidates) infinity in
  let incumbent = ref infinity in
  let width = max 1 (Pool.size pool) in
  let rec go start =
    if start < Array.length order then begin
      let batch =
        Array.sub order start (min width (Array.length order - start))
        |> Array.to_list
        |> List.filter (fun i ->
               let _, _, _, bound = candidates.(i) in
               if bound > !incumbent *. (1.0 +. r1) then begin
                 Counters.bump "sim.pruned";
                 false
               end
               else true)
        |> Array.of_list
      in
      let ts =
        Pool.map pool
          (fun i ->
            let _, _, s, _ = candidates.(i) in
            Sim.time ~blocks topo s)
          batch
      in
      Array.iteri
        (fun k i ->
          times.(i) <- ts.(k);
          incumbent := Float.min !incumbent ts.(k))
        batch;
      go (start + width)
    end
  in
  go 0;
  Array.to_list (Array.mapi (fun i (c, p, s, _) -> (c, p, s, times.(i))) candidates)

(* Synthesize one non-AllReduce phase; returns (schedule, simulated time,
   stats).  The schedule is already mirrored for reduce-family phases. *)
let synth_phase ~pool ~memo ~budget cfg topo (phase : Collective.t) =
  Trace.with_span ~cat:"stage" "synth.phase"
    ~args:[ ("collective", Format.asprintf "%a" Collective.pp phase) ]
  @@ fun () ->
  if phase.Collective.kind = Collective.SendRecv then synth_sendrecv cfg topo phase
  else
  let primitives = Collective.decompose phase in
  let p0 = List.hd primitives in
  let mirrored = p0.Collective.mirrored in
  (* Reduce-family mirrors combine on the way up ([reverse]); Gather is the
     only non-reducing mirrored kind and must stay a copy ([transpose]). *)
  let mirror =
    if Collective.is_reduce phase.Collective.kind then Schedule.reverse
    else Schedule.transpose
  in
  let kind = p0.Collective.p_kind in
  let search_cfg =
    match cfg.search_config with Some c -> c | None -> Search.default topo kind
  in
  let sketches, search_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.search" (fun () ->
            cached_search ~budget topo ~config:search_cfg ~kind
              ~root:p0.Collective.p_root))
  in
  if sketches = [] then failwith "Synthesizer: no sketch covers the demand";
  (* Rank shapes by an α-β estimate and keep the most promising; the
     simulator makes the final call among the survivors.  For one-to-all
     demands the estimate sums per-stage critical sends; for all-to-all
     demands every GPU replays the sketch simultaneously, so per-GPU port
     time per dimension is its workload times the link's byte time. *)
  let sketches =
    let size = Collective.chunk_size phase in
    let all_to_all = List.length primitives > 1 in
    let stage_estimate s =
      List.fold_left
        (fun acc k ->
          let stage_cost =
            List.fold_left
              (fun m (sd : Sketch.subdemand) ->
                if sd.Sketch.sd_stage <> k then m
                else begin
                  let link = (Topology.dim topo sd.Sketch.sd_dim).Syccl_topology.Topology.link in
                  let rounds =
                    (List.length sd.Sketch.dsts + List.length sd.Sketch.srcs - 1)
                    / max 1 (List.length sd.Sketch.srcs)
                  in
                  Float.max m
                    (link.Syccl_topology.Link.alpha
                    +. (link.Syccl_topology.Link.beta *. size *. float_of_int rounds))
                end)
              0.0 (Sketch.subdemands topo s)
          in
          acc +. stage_cost)
        0.0
        (List.init s.Sketch.num_stages (fun k -> k))
    in
    let merged_estimate s =
      let w = Sketch.dim_workload topo s in
      let worst = ref 0.0 in
      Array.iteri
        (fun d wd ->
          let link = (Topology.dim topo d).Syccl_topology.Topology.link in
          let t = wd *. link.Syccl_topology.Link.beta *. size in
          if t > !worst then worst := t)
        w;
      !worst +. stage_estimate s *. 1e-3
      (* stage term only breaks ties toward lower latency *)
    in
    let estimate = if all_to_all then merged_estimate else stage_estimate in
    (* Production scale: per-combo planning/simulation costs grow with n, so
       keep fewer (better-ranked) shapes. *)
    let cap =
      if Topology.num_gpus topo >= 256 then min cfg.max_shapes 8
      else cfg.max_shapes
    in
    let ranked =
      List.map (fun s -> (estimate s, s)) sketches
      |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      |> List.map snd
    in
    let kept = List.filteri (fun i _ -> i < cap) ranked in
    (* A shape that is slow alone can be the essential complement of a mix
       (§4.2 step 2 balances dimensions by pairing opposite profiles), so
       also keep, per dimension, the best-ranked shape whose workload
       concentrates there. *)
    let dominant s =
      let w = Sketch.dim_workload topo s in
      let total = Array.fold_left ( +. ) 0.0 w in
      let best = ref 0 in
      Array.iteri (fun d v -> if v > w.(!best) then best := d) w;
      if total > 0.0 && w.(!best) > 0.5 *. total then Some !best else None
    in
    let complements =
      List.filter_map
        (fun d ->
          if List.exists (fun s -> dominant s = Some d) kept then None
          else List.find_opt (fun s -> dominant s = Some d) ranked)
        (List.init (Topology.num_dims topo) (fun d -> d))
    in
    kept @ complements
  in
  let combos, combine_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.combine" @@ fun () ->
        (* Combinations are also size-independent (fractions are ratios);
           key by the kept shapes' signatures.  At production scale every
           combo costs seconds to plan/simulate, so fewer are kept. *)
        let max_combos =
          if Topology.num_gpus topo >= 256 then min cfg.max_combos 12
          else cfg.max_combos
        in
        let key =
          Format.asprintf "%s/%d/%b/%d/%a" topo.Topology.name
            (Topology.num_gpus topo)
            (List.length primitives > 1)
            max_combos
            (fun fmt l ->
              List.iter (fun s -> Format.fprintf fmt "%x." (Sketch.signature topo s)) l)
            sketches
        in
        match Cache.find_opt combo_cache key with
        | Some r -> r
        | None ->
            let r =
              if List.length primitives > 1 then
                Combine.combos_all_to_all ~max_combos ~budget topo sketches
              else Combine.combos_one_to_all ~max_combos ~budget topo sketches
            in
            (* An expired budget may have truncated generation mid-way;
               where it stopped is timing-dependent, so don't memoize. *)
            if not (Budget.expired budget) then Cache.put combo_cache key r;
            r)
  in
  let plans = List.map (fun c -> (c, Subsolver.plan topo phase c)) combos in
  (* One candidate schedule from per-demand solutions: the symmetry
     mapping of every demand of the plan happens here. *)
  let assemble p ~solution =
    Trace.with_span ~cat:"stage" "synth.assemble" @@ fun () ->
    let s = Subsolver.assemble p ~solution in
    if mirrored then mirror s else s
  in
  (* Step 1: fast solving of every combination, then filtering (§5.3). *)
  let (step1, solution1), solve1_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.solve1" @@ fun () ->
        let strategy =
          if cfg.fast_only then Subsolver.Fast_only
          else
            (* Coarse solving: large epochs (E1) and a small refinement
               budget — quick screening of every combination. *)
            Subsolver.Milp_refine
              {
                e = cfg.e1;
                var_budget = cfg.milp_var_budget / 2;
                node_limit = min 20 cfg.milp_node_limit;
                time_limit = Float.min 2.0 cfg.milp_time_limit;
              }
        in
        let solution =
          solve_plans ~pool ~memo ~budget strategy topo (List.map snd plans)
        in
        (* Coarse screening simulates with few blocks; survivors get the
           full-fidelity simulation in step 2.  Candidates are independent,
           so assembly + simulation also spread across the pool (the
           class-solution table is read-only by now). *)
        let screen_blocks = min 2 cfg.blocks in
        let assembled =
          Pool.map pool
            (fun (c, p) ->
              let s = assemble p ~solution in
              (c, p, s, Sim.lower_bound ~blocks:screen_blocks topo s))
            (Array.of_list plans)
        in
        (screen ~pool ~r1:cfg.r1 ~blocks:screen_blocks topo assembled, solution))
  in
  (* Very large schedules are simulated with coarser pipelining: block count
     barely moves the makespan once chunks are megabytes, but event counts
     grow linearly. *)
  let fidelity_blocks s =
    if Schedule.num_xfers s > 40_000 then min 2 cfg.blocks else cfg.blocks
  in
  let best_t =
    List.fold_left (fun a (_, _, _, t) -> Float.min a t) infinity step1
  in
  let survivors =
    List.filter (fun (_, _, _, t) -> t <= best_t *. (1.0 +. cfg.r1)) step1
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b)
    |> List.filteri (fun i _ -> i < cfg.r2)
  in
  (* Step 2: accurate solving and full-fidelity simulation of the
     surviving candidates. *)
  let step2, solve2_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.solve2" @@ fun () ->
        if Budget.expired budget then begin
          (* No time left to refine or re-simulate: keep the survivors at
             their coarse screening fidelity. *)
          Budget.mark_degraded budget;
          survivors
        end
        else if cfg.fast_only then
          List.map
            (fun (c, p, s1, _) ->
              (c, p, s1, Sim.time ~blocks:(fidelity_blocks s1) topo s1))
            survivors
        else begin
          let strategy = strategy_of cfg ~e:cfg.e2 in
          (* Fine solves warm-start from the coarse incumbent for the same
             demand (step 1's class table is read-only by now). *)
          let solution =
            solve_plans ~pool ~memo ~budget
              ~warm:(fun d -> Some (solution1 d))
              strategy topo
              (List.map (fun (_, p, _, _) -> p) survivors)
          in
          List.map
            (fun (c, p, s1, _) ->
              let s2 = assemble p ~solution in
              let t1 = Sim.time ~blocks:(fidelity_blocks s1) topo s1 in
              (* Refinement often returns the coarse schedule unchanged; the
                 simulator is deterministic, so it would only re-derive t1. *)
              if s2 = s1 then (c, p, s1, t1)
              else
                let t2 = Sim.time ~blocks:(fidelity_blocks s2) topo s2 in
                if t2 < t1 then (c, p, s2, t2) else (c, p, s1, t1))
            survivors
        end)
  in
  let (combo, _, sched, t) =
    match
      List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b) step2
    with
    | best :: _ -> best
    | [] -> failwith "Synthesizer: no candidate survived"
  in
  ( sched,
    t,
    { zero_breakdown with search_s; combine_s; solve1_s; solve2_s },
    List.length sketches,
    List.length combos,
    combo.Combine.desc )

let synthesize_memo ~config ~memo ~budget topo coll =
  Trace.with_span ~cat:"stage" "synthesize"
    ~args:
      [
        ("collective", Format.asprintf "%a" Collective.pp coll);
        ("topo", topo.Topology.name);
      ]
  @@ fun () ->
  let t0 = Clock.now () in
  if coll.Collective.n <> Topology.num_gpus topo then
    invalid_arg "Synthesizer: collective/topology GPU count mismatch";
  (* Solver/cache activity attributed to this call: deltas of the shared
     process-wide counters (see the breakdown doc for concurrency caveats). *)
  let activity0 =
    ( Counters.value "cache.subsolve.hits",
      Counters.value "cache.subsolve.misses",
      Counters.value "milp.solves",
      Counters.value "milp.nodes",
      Counters.value "milp.flow_certified" )
  in
  let pool = Pool.get config.domains in
  let phases = Collective.phases coll in
  let results = List.map (synth_phase ~pool ~memo ~budget config topo) phases in
  let schedules = List.map (fun (s, _, _, _, _, _) -> s) results in
  let time = List.fold_left (fun a (_, t, _, _, _, _) -> a +. t) 0.0 results in
  let breakdown =
    List.fold_left (fun a (_, _, b, _, _, _) -> add_breakdown a b) zero_breakdown results
  in
  let breakdown =
    let h0, m0, s0, n0, f0 = activity0 in
    let d now before = int_of_float (now -. before) in
    {
      breakdown with
      cache_hits = d (Counters.value "cache.subsolve.hits") h0;
      cache_misses = d (Counters.value "cache.subsolve.misses") m0;
      milp_solves = d (Counters.value "milp.solves") s0;
      milp_nodes = d (Counters.value "milp.nodes") n0;
      flow_certified = d (Counters.value "milp.flow_certified") f0;
    }
  in
  let num_sketches = List.fold_left (fun a (_, _, _, s, _, _) -> a + s) 0 results in
  let num_combos = List.fold_left (fun a (_, _, _, _, c, _) -> a + c) 0 results in
  let chosen = String.concat " + " (List.map (fun (_, _, _, _, _, d) -> d) results) in
  let synth_time = Clock.now () -. t0 in
  Counters.bump "synth.calls";
  Counters.addf "synth.total_s" synth_time;
  Counters.addf "synth.search_s" breakdown.search_s;
  Counters.addf "synth.combine_s" breakdown.combine_s;
  Counters.addf "synth.solve1_s" breakdown.solve1_s;
  Counters.addf "synth.solve2_s" breakdown.solve2_s;
  {
    schedules;
    time;
    busbw = Collective.busbw coll ~time;
    synth_time;
    breakdown;
    num_sketches;
    num_combos;
    chosen;
    degraded = Full;
    degrade_reason = None;
  }

let budget_of_config config =
  match config.deadline with
  | None -> Budget.unlimited
  | Some s -> Budget.create ~seconds:s ()

(* Last rung of the degradation ladder: a validated precomputed baseline
   ({!Syccl_baselines.Fallback}).  Simulation is best-effort here — when the
   simulator is the faulty or too-slow component, [time]/[busbw] come out
   as nan rather than the rung failing. *)
let fallback_outcome ~t0 ~reason config topo coll =
  Counters.bump "synth.fallbacks";
  Trace.instant "synth.fallback" ~args:[ ("reason", reason) ];
  let schedules = Syccl_baselines.Fallback.schedule topo coll in
  let time =
    try
      List.fold_left
        (fun a s -> a +. Sim.time ~blocks:config.blocks topo s)
        0.0 schedules
    with _ -> Float.nan
  in
  {
    schedules;
    time;
    busbw = Collective.busbw coll ~time;
    synth_time = Clock.now () -. t0;
    breakdown = zero_breakdown;
    num_sketches = 0;
    num_combos = 0;
    chosen = "baseline-fallback";
    degraded = Fallback;
    degrade_reason = Some reason;
  }

(* The reroute rung, engaged only on punctured topologies: take the
   baseline schedule of the healthy base topology and reroute its
   transfers around the dead hardware.  Validated by the caller like every
   other rung. *)
let rerouted_outcome ~t0 ~reason config topo coll =
  Counters.bump "synth.reroutes";
  Trace.instant "synth.reroute" ~args:[ ("reason", reason) ];
  let healthy = Syccl_baselines.Fallback.schedule (Topology.base topo) coll in
  let schedules = Reroute.schedules topo healthy in
  let time =
    try
      List.fold_left
        (fun a s -> a +. Sim.time ~blocks:config.blocks topo s)
        0.0 schedules
    with _ -> Float.nan
  in
  {
    schedules;
    time;
    busbw = Collective.busbw coll ~time;
    synth_time = Clock.now () -. t0;
    breakdown = zero_breakdown;
    num_sketches = 0;
    num_combos = 0;
    chosen = "baseline-rerouted";
    degraded = Rerouted;
    degrade_reason = Some reason;
  }

(* The bottom of the ladder.  Healthy topology: straight to the baseline.
   Punctured topology: try rerouting the healthy baseline around the dead
   hardware first (validated — an invalid reroute counts as the rung
   crashing), and only then the baseline on the punctured topology itself,
   whose candidates may all be severed. *)
let last_resort ~t0 ~reason config topo coll =
  if Fault.is_empty (Topology.faults topo) then
    fallback_outcome ~t0 ~reason config topo coll
  else
    match
      let o = rerouted_outcome ~t0 ~reason config topo coll in
      match Syccl_sim.Validate.validate topo coll o.schedules with
      | Ok () ->
          Counters.bump "synth.degraded";
          o
      | Error e ->
          failwith ("Synthesizer: rerouted schedule failed validation: " ^ e)
    with
    | o -> o
    | exception e ->
        Counters.bump "synth.rung_failures";
        Trace.instant "synth.degrade"
          ~args:[ ("rung", "rerouted"); ("error", Printexc.to_string e) ];
        fallback_outcome ~t0 ~reason:(Printexc.to_string e) config topo coll

(* Degradation ladder: a full-pipeline attempt, then — if that crashed — a
   fast-only retry under the same budget, then (on punctured topologies) a
   reroute of the healthy baseline around the dead hardware, then the
   precomputed baseline.  Every rung's schedules must pass
   Validate.validate before they are returned; a rung producing an invalid
   schedule counts as that rung crashing.  Caller errors (GPU-count
   mismatch) are raised before the ladder engages so a fallback never
   masks them. *)
let synthesize_with ~config ~memo ~budget topo coll =
  if coll.Collective.n <> Topology.num_gpus topo then
    invalid_arg "Synthesizer: collective/topology GPU count mismatch";
  let t0 = Clock.now () in
  let validated level reason (o : outcome) =
    match Syccl_sim.Validate.validate topo coll o.schedules with
    | Ok () ->
        if level <> Full then Counters.bump "synth.degraded";
        { o with degraded = level; degrade_reason = reason }
    | Error e -> failwith ("Synthesizer: schedule failed validation: " ^ e)
  in
  let rung_failed rung e =
    Counters.bump "synth.rung_failures";
    Trace.instant "synth.degrade"
      ~args:[ ("rung", rung); ("error", Printexc.to_string e) ]
  in
  match
    let o = synthesize_memo ~config ~memo ~budget topo coll in
    let level = if Budget.degraded budget then Fast else Full in
    validated level (if level = Fast then Some "deadline" else None) o
  with
  | o -> o
  | exception e1 ->
      rung_failed "full" e1;
      let r1 = Printexc.to_string e1 in
      if config.fast_only || Budget.expired budget then
        last_resort ~t0 ~reason:r1 config topo coll
      else begin
        match
          let cfg = { config with fast_only = true } in
          validated Fast (Some r1)
            (synthesize_memo ~config:cfg ~memo ~budget topo coll)
        with
        | o -> o
        | exception e2 ->
            rung_failed "fast" e2;
            last_resort ~t0 ~reason:(Printexc.to_string e2) config topo coll
      end

let synthesize ?(config = default_config) topo coll =
  synthesize_with ~config ~memo:live_memo ~budget:(budget_of_config config)
    topo coll

(* Parallel sweep driver: synthesize a whole size/collective series
   concurrently on the same pool the per-call solves use.  Awaiting helps,
   so the nested parallel regions inside each synthesize cannot deadlock;
   with [config.domains <= 1] this degrades to a sequential List.map.

   Snapshot isolation: concurrent elements sharing the live sub-solve cache
   would make results depend on scheduling — which entries are present when
   an element probes depends on how far its siblings have run, and a
   normalized transfer hit yields different (valid but not identical)
   xfers than a direct solve.  Instead every element probes a frozen
   sweep-start snapshot plus its own insertions, so its schedule is
   exactly what a standalone [synthesize] would produce from the same
   starting cache state, for any pool size and any schedule of the
   workers.  Each overlay is only ever touched from within its own
   element's (single) task body — helping runs a whole task on one worker,
   never parts of one task on two — so the overlays need no locking.
   Insertions are merged back into the shared cache in list order after
   the whole sweep completes.

   Fault isolation: every element runs the full degradation ladder inside
   its own task, under its own {!Budget.detach}ed budget (shared sweep
   deadline, independent token), so a crashing or expiring element
   degrades — it does not abort its siblings or the sweep.  An element
   whose task dies outside the ladder (e.g. the ["pool.crash"] fault
   point fires before the ladder runs) surfaces as [Error]. *)
let synthesize_all_results ?(config = default_config) topo colls =
  match colls with
  | [] -> []
  | [ coll ] -> (
      match synthesize ~config topo coll with
      | o -> [ Ok o ]
      | exception e -> [ Error (Printexc.to_string e) ])
  | _ ->
      let pool = Pool.get config.domains in
      let sweep_budget = budget_of_config config in
      let snap = Hashtbl.create 256 in
      List.iter
        (fun (k, v) -> Hashtbl.replace snap k v)
        (Cache.bindings subsolve_cache);
      let jobs =
        List.map
          (fun coll ->
            let overlay = Hashtbl.create 64 in
            let inserts = ref [] in
            let memo =
              {
                memo_find =
                  (fun k ->
                    let r =
                      match Hashtbl.find_opt overlay k with
                      | Some _ as r -> r
                      | None -> Hashtbl.find_opt snap k
                    in
                    (match r with
                    | Some _ -> Counters.bump "cache.subsolve.hits"
                    | None -> Counters.bump "cache.subsolve.misses");
                    r);
                memo_put =
                  (fun k v ->
                    Hashtbl.replace overlay k v;
                    inserts := (k, v) :: !inserts);
              }
            in
            let budget = Budget.detach sweep_budget in
            ( Pool.submit pool (fun () ->
                  synthesize_with ~config ~memo ~budget topo coll),
              budget,
              inserts ))
          colls
      in
      let outs =
        List.map
          (fun (fut, budget, _) ->
            let r =
              match Pool.await fut with
              | o -> Ok o
              | exception e -> Error (Printexc.to_string e)
            in
            (* The element is finished either way; cancel its budget so any
               helper still holding it bails instead of burning the rest of
               the deadline. *)
            Budget.cancel budget;
            r)
          jobs
      in
      List.iter
        (fun (_, _, inserts) ->
          List.iter
            (fun (k, v) -> Cache.put subsolve_cache k v)
            (List.rev !inserts))
        jobs;
      outs

let synthesize_all ?(config = default_config) topo colls =
  List.map2
    (fun coll r ->
      match r with
      | Ok o -> o
      | Error reason ->
          (* The element's task died before the ladder could catch it;
             rebuild its result from the bottom rungs in this thread. *)
          last_resort ~t0:(Clock.now ()) ~reason config topo coll)
    colls
    (synthesize_all_results ~config topo colls)
