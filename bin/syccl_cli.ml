(* SyCCL command-line interface: inspect topologies, synthesize schedules,
   sweep sizes.  See `syccl_cli --help`. *)

open Cmdliner
module T = Syccl_topology
module C = Syccl_collective.Collective
module S = Syccl_sim
module Request = Syccl_serve.Request
module Registry = Syccl_serve.Registry
module Serve = Syccl_serve.Serve
module Audit = Syccl_serve.Audit
module Failover = Syccl_serve.Failover
module Fleet = Syccl_serve.Fleet

(* Name resolution moved into the serve layer (Syccl_serve.Request) so the
   CLI, batch files, tests and benches accept the same names. *)
let topo_of_name = Request.topo_of_name
let coll_of_name name ~n ~size = Request.coll_of_name name ~n ~size

let topo_arg =
  Arg.(
    value
    & opt string "a100-16"
    & info [ "t"; "topology" ] ~docv:"TOPO" ~doc:"Topology name.")

let coll_arg =
  Arg.(
    value
    & opt string "allgather"
    & info [ "c"; "collective" ] ~docv:"COLL" ~doc:"Collective kind.")

let size_arg =
  Arg.(
    value
    & opt float 1048576.0
    & info [ "s"; "size" ] ~docv:"BYTES" ~doc:"Data size in bytes.")

let fast_arg =
  Arg.(
    value & flag
    & info [ "fast" ] ~doc:"Skip the MILP refinement (fast solving only).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Puncture the topology before synthesizing: a comma-joined \
           canonical fault set of $(b,gpu:G) (GPU down), $(b,link:D:A-B) \
           (the dimension-D edge between GPUs A and B down, A < B) and \
           $(b,nic:G@P) (GPU G's port-group-P NIC down) elements.  The \
           schedule is synthesized on — and validated against — the \
           surviving hardware; registry entries and audit records key the \
           fault class apart from the healthy topology.")

let faults_of = function
  | None -> T.Fault.empty
  | Some spec -> T.Fault.decode spec

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "d"; "domains" ] ~docv:"N"
        ~doc:
          "Parallel solver instances.  Served by a persistent work-stealing \
           domain pool that is spawned once per level and reused across \
           calls.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the whole synthesis (or sweep).  When it \
           is too tight, synthesis degrades gracefully — truncated search, \
           skipped MILP refinement, precomputed-baseline fallback — instead \
           of overshooting; the chosen ladder rung is reported.")

let registry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "registry" ] ~docv:"DIR"
        ~doc:
          "Persistent schedule registry directory.  Synthesized schedules \
           are stored there and later requests for the same (topology \
           structure, collective, size bucket) are served from it — every \
           hit is re-validated and re-simulated before being trusted.  \
           Defaults to $(b,SYCCL_REGISTRY) when that variable is set; with \
           neither, the registry is disabled.")

(* --registry beats SYCCL_REGISTRY beats disabled. *)
let registry_of = function
  | Some dir -> Some (Registry.open_dir dir)
  | None -> Registry.from_env ()

let require_registry rdir =
  match registry_of rdir with
  | Some r -> r
  | None -> failwith "no registry: pass --registry DIR or set SYCCL_REGISTRY"

let audit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit" ] ~docv:"FILE"
        ~doc:
          "Append one audit JSONL record per request element to $(docv) \
           (plan decision, registry probe outcome with miss reason, ladder \
           rung, budget vs consumed, solver counter deltas).  Defaults to \
           $(i,REGISTRY)/audit.jsonl when a registry is active; pass \
           $(b,--audit none) to disable.")

(* --audit FILE beats the registry-adjacent default; "none" disables. *)
let audit_of registry = function
  | Some "none" -> None
  | Some path -> Some (Audit.open_file path)
  | None -> Option.map Audit.for_registry registry

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "After the run, write every counter and histogram in Prometheus \
           text exposition format to $(docv) ($(b,-) for stdout).")

let write_metrics_out = function
  | None -> ()
  | Some path ->
      let text = Syccl_util.Counters.to_prometheus () in
      if path = "-" then print_string text
      else begin
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Format.eprintf "metrics:    wrote %s@." path
      end

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print runtime counters (pool tasks/steals, cache hits/misses, \
           per-stage wall time) after synthesis.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print histogram metrics (sub-solve / MILP solve latencies, simplex \
           pivots, branch-and-bound nodes, cache lookup latencies, pool queue \
           latency) after the run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record synthesis spans (and, for $(b,synth), a simulated \
           link-occupancy timeline of the winning schedule) and write Chrome \
           trace-event JSON to $(docv).  Load it at ui.perfetto.dev or \
           chrome://tracing.")

let print_stats () =
  Format.printf "--- stats ---@.";
  List.iter
    (fun (k, v) ->
      if Float.is_integer v then Format.printf "%-28s %12.0f@." k v
      else Format.printf "%-28s %12.4f@." k v)
    (Syccl_util.Counters.snapshot ())

let print_metrics () =
  Format.printf "--- histograms ---@.";
  Format.printf "%-26s %8s %11s %11s %11s %11s %11s@." "histogram" "n" "mean"
    "p50" "p90" "p99" "max";
  List.iter
    (fun (k, (h : Syccl_util.Counters.hist_stats)) ->
      Format.printf "%-26s %8d %11.3e %11.3e %11.3e %11.3e %11.3e@." k h.n
        h.mean h.p50 h.p90 h.p99 h.hmax)
    (Syccl_util.Counters.hist_snapshot ())

(* Every counter as a JSON object field; every histogram with its
   percentile summary — the JSON face of the Prometheus exposition. *)
let counters_json () =
  let open Syccl_util.Json in
  let int i = Num (float_of_int i) in
  let counters =
    List.map (fun (k, v) -> (k, Num v)) (Syccl_util.Counters.snapshot ())
  in
  let hists =
    List.map
      (fun (k, (h : Syccl_util.Counters.hist_stats)) ->
        ( k,
          Obj
            [
              ("n", int h.n); ("sum", Num h.sum); ("mean", Num h.mean);
              ("min", Num h.hmin); ("max", Num h.hmax); ("p50", Num h.p50);
              ("p90", Num h.p90); ("p99", Num h.p99);
            ] ))
      (Syccl_util.Counters.hist_snapshot ())
  in
  (Obj counters, Obj hists)

(* Machine-readable run report: outcome + breakdown + every counter and
   histogram, as one JSON object. *)
let stats_json (o : Syccl.Synthesizer.outcome) =
  let open Syccl_util.Json in
  let b = o.breakdown in
  let int i = Num (float_of_int i) in
  let counters, hists = counters_json () in
  Obj
    [
      ("schema_version", int 1);
      ("time_s", Num o.time);
      ("busbw_gbps", Num o.busbw);
      ("synth_time_s", Num o.synth_time);
      ("num_sketches", int o.num_sketches);
      ("num_combos", int o.num_combos);
      ("chosen", Str o.chosen);
      ("degraded", Str (Syccl.Synthesizer.level_name o.degraded));
      ( "degrade_reason",
        match o.degrade_reason with None -> Null | Some r -> Str r );
      ( "breakdown",
        Obj
          [
            ("search_s", Num b.search_s);
            ("combine_s", Num b.combine_s);
            ("solve1_s", Num b.solve1_s);
            ("solve2_s", Num b.solve2_s);
            ("cache_hits", int b.cache_hits);
            ("cache_misses", int b.cache_misses);
            ("milp_solves", int b.milp_solves);
            ("milp_nodes", int b.milp_nodes);
            ("flow_certified", int b.flow_certified);
            ("registry_hits", int b.registry_hits);
            ("registry_misses", int b.registry_misses);
          ] );
      ("counters", counters);
      ("histograms", hists);
    ]

(* Run-level stats for the multi-request commands (sweep/batch): no single
   outcome to report, but the counters and histogram percentiles are the
   point — they make the solver's behaviour reachable from JSON. *)
let run_stats_json () =
  let open Syccl_util.Json in
  let counters, hists = counters_json () in
  Obj
    [
      ("schema_version", Num 1.0);
      ("counters", counters);
      ("histograms", hists);
    ]

let write_json_file ~what path (j : Syccl_util.Json.t) =
  let text = Syccl_util.Json.to_string ~pretty:true j ^ "\n" in
  if path = "-" then print_string text
  else begin
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Format.eprintf "%s: wrote %s@." what path
  end

let write_stats_json path o = write_json_file ~what:"stats-json" path (stats_json o)

let export_trace ?(cut = 0) path =
  Syccl_util.Trace.disable ();
  Syccl_util.Trace.export_file path;
  Format.printf "trace:      wrote %s (%d events, %d dropped%s) — load in \
                 ui.perfetto.dev@."
    path
    (List.length (Syccl_util.Trace.events ()))
    (Syccl_util.Trace.dropped ())
    (if cut > 0 then Printf.sprintf ", %d timeline events cut" cut else "")

let topo_cmd =
  let run name =
    let topo = topo_of_name name in
    Format.printf "%a@." T.Topology.pp topo;
    Array.iteri
      (fun d share -> Format.printf "  bandwidth share dim %d: %.3f@." d share)
      (T.Topology.bandwidth_share topo)
  in
  Cmd.v (Cmd.info "topo" ~doc:"Show a topology's dimensions and groups.")
    Term.(const run $ topo_arg)

let synth_cmd =
  let run tname cname size fast faults domains deadline stats verbose trace
      metrics sjson rdir audit mout =
    let config =
      { Syccl.Synthesizer.default_config with fast_only = fast; domains;
        deadline }
    in
    let req =
      Request.make ~config ~faults:(faults_of faults) ~topology:tname
        ~collective:cname ~size ()
    in
    let topo = req.Request.topo and coll = req.Request.coll in
    let registry = registry_of rdir in
    if trace <> None then Syccl_util.Trace.enable ();
    let so = Serve.run ?registry ?audit:(audit_of registry audit) req in
    let o = so.Serve.synth in
    Format.printf "collective: %a on %s%s@." C.pp coll tname
      (match T.Fault.encode (Request.faults req) with
      | "" -> ""
      | s -> Printf.sprintf " (faults %s)" s);
    (match (registry, so.Serve.source) with
    | None, _ -> ()
    | Some reg, Serve.From_registry { hit_key; via; stored_cost } ->
        Format.printf
          "registry:   hit %s%s in %s (stored cost %.1f us, re-validated)@."
          hit_key
          (match via with
          | Registry.Exact -> ""
          | Registry.Rescaled -> " (rescaled)"
          | Registry.Transported -> " (transported)"
          | Registry.Scaled_cross -> " (rescaled cross-bucket)")
          (Registry.dir reg) (stored_cost *. 1e6)
    | Some reg, Serve.From_synthesis ->
        Format.printf "registry:   miss in %s (stored for next time)@."
          (Registry.dir reg));
    Format.printf "synthesis:  %.2fs (search %.2fs, combine %.2fs, solve1 %.2fs, solve2 %.2fs)@."
      o.synth_time o.breakdown.search_s o.breakdown.combine_s
      o.breakdown.solve1_s o.breakdown.solve2_s;
    Format.printf "solver:     %d memo hits / %d misses, %d MILP models, %d \
                   B&B nodes, %d flow-certified@."
      o.breakdown.cache_hits o.breakdown.cache_misses o.breakdown.milp_solves
      o.breakdown.milp_nodes o.breakdown.flow_certified;
    Format.printf "sketches:   %d explored, %d combinations, winner: %s@."
      o.num_sketches o.num_combos o.chosen;
    Format.printf "ladder:     %s%s@."
      (Syccl.Synthesizer.level_name o.degraded)
      (match o.degrade_reason with None -> "" | Some r -> " (" ^ r ^ ")");
    Format.printf "predicted:  %.1f us, busbw %.1f GBps@." (o.time *. 1e6) o.busbw;
    if verbose then
      List.iter (fun s -> Format.printf "%a@." S.Schedule.pp s) o.schedules;
    (match trace with
    | None -> ()
    | Some path ->
        (* Re-simulate the winning schedules with timeline export on: one
           Perfetto process per phase, one track per active port.  The
           timeline only fills the ring's free slots (less one for the
           run's own span), so it never evicts the synthesis spans. *)
        Syccl_util.Trace.set_process_name ~pid:Syccl_util.Trace.synthesis_pid
          "synthesis";
        let cut =
          List.fold_left
            (fun cut (i, s) ->
              let pid = Syccl_util.Trace.sim_pid + i in
              Syccl_util.Trace.set_process_name ~pid
                (Printf.sprintf "sim phase %d (virtual time)" i);
              let limit = Syccl_util.Trace.free_slots () - 1 in
              cut + snd (S.Sim.timeline ~blocks:config.blocks ~pid ~limit topo s))
            0
            (List.mapi (fun i s -> (i, s)) o.schedules)
        in
        export_trace ~cut path);
    if stats then print_stats ();
    if metrics then print_metrics ();
    Option.iter (fun p -> write_stats_json p o) sjson;
    write_metrics_out mout
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump the schedule.")
  in
  let sjson =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write the outcome, per-stage breakdown, counters and histograms \
             as JSON to $(docv) ($(b,-) for stdout).")
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize a schedule and report its performance.")
    Term.(
      const run $ topo_arg $ coll_arg $ size_arg $ fast_arg $ faults_arg
      $ domains_arg $ deadline_arg $ stats_arg $ verbose $ trace_arg
      $ metrics_arg $ sjson $ registry_arg $ audit_arg $ metrics_out_arg)

(* A registry entry rendered as a synthesis outcome, so Explain.outcome can
   report it: the schedules and chosen description are stored; the cost is
   freshly re-simulated at the entry's store-time fidelity. *)
let entry_outcome topo (m : Registry.meta) schedules =
  let time =
    List.fold_left
      (fun a s -> a +. S.Sim.time ~blocks:m.Registry.m_blocks topo s)
      0.0 schedules
  in
  let coll =
    C.make ~root:m.Registry.m_root ~peer:m.Registry.m_peer
      (C.kind_of_name m.Registry.m_kind)
      ~n:(T.Topology.num_gpus topo) ~size:m.Registry.m_size
  in
  {
    Syccl.Synthesizer.schedules;
    time;
    busbw = C.busbw coll ~time;
    synth_time = 0.0;
    breakdown =
      {
        Syccl.Synthesizer.search_s = 0.0; combine_s = 0.0; solve1_s = 0.0;
        solve2_s = 0.0; cache_hits = 0; cache_misses = 0; milp_solves = 0;
        milp_nodes = 0; flow_certified = 0; registry_hits = 1;
        registry_misses = 0;
      };
    num_sketches = 0;
    num_combos = 0;
    chosen = m.Registry.m_chosen;
    degraded = Syccl.Synthesizer.Full;
    degrade_reason = None;
  }

let explain_cmd =
  let run tname cname size fast entry rdir =
    match entry with
    | Some key ->
        (* Explain a stored registry entry instead of synthesizing. *)
        let reg = require_registry rdir in
        let topo = topo_of_name tname in
        (match Registry.load reg key with
        | Error e -> failwith (Printf.sprintf "entry %s: %s" key e)
        | Ok (m, schedules) ->
            if m.Registry.m_fingerprint <> T.Topology.fingerprint topo then
              failwith
                (Printf.sprintf
                   "entry %s was stored for topology fingerprint %s, but %s \
                    fingerprints as %s — pass the matching -t"
                   key m.Registry.m_fingerprint tname
                   (T.Topology.fingerprint topo));
            let provenance =
              Printf.sprintf
                "registry entry %s in %s (%s, %.0f bytes data, stored cost \
                 %.1f us at blocks=%d, schema v%d)"
                key (Registry.dir reg) m.Registry.m_kind m.Registry.m_size
                (m.Registry.m_cost *. 1e6)
                m.Registry.m_blocks m.Registry.m_schema
            in
            print_string
              (Syccl.Explain.outcome ~provenance topo
                 (entry_outcome topo m schedules)))
    | None ->
        let topo = topo_of_name tname in
        let coll = coll_of_name cname ~n:(T.Topology.num_gpus topo) ~size in
        let config = { Syccl.Synthesizer.default_config with fast_only = fast } in
        let o = Syccl.Synthesizer.synthesize ~config topo coll in
        print_string
          (Syccl.Explain.outcome ~provenance:"fresh synthesis" topo o);
        (* Re-derive the winner's first sketch for the readable report. *)
        let kind =
          match coll.C.kind with
          | C.AllToAll | C.Scatter | C.Gather -> `Scatter
          | _ -> `Broadcast
        in
        (match Syccl.Search.run topo ~kind ~root:0 with
        | s :: _ ->
            print_newline ();
            print_string (Syccl.Explain.sketch topo s)
        | [] -> ())
  in
  let entry =
    Arg.(
      value
      & opt (some string) None
      & info [ "entry" ] ~docv:"KEY"
          ~doc:
            "Explain the stored registry entry $(docv) (from $(b,syccl \
             registry ls)) instead of synthesizing: requires a registry and \
             a $(b,-t) whose fingerprint matches the entry.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Print a human-readable report — critical path, port bottleneck, \
          alpha/beta shares — for a fresh synthesis or a stored registry \
          entry ($(b,--entry)).")
    Term.(
      const run $ topo_arg $ coll_arg $ size_arg $ fast_arg $ entry
      $ registry_arg)

let save_cmd =
  let run tname cname size fast path =
    let topo = topo_of_name tname in
    let coll = coll_of_name cname ~n:(T.Topology.num_gpus topo) ~size in
    let config = { Syccl.Synthesizer.default_config with fast_only = fast } in
    let o = Syccl.Synthesizer.synthesize ~config topo coll in
    List.iteri
      (fun i s ->
        let path =
          if List.length o.schedules = 1 then path
          else Printf.sprintf "%s.phase%d" path i
        in
        let oc = open_out path in
        output_string oc
          (Syccl_util.Json.to_string ~pretty:true (S.Schedule.to_json s));
        close_out oc;
        Format.printf "wrote %s@." path)
      o.schedules
  in
  let path =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Destination JSON path.")
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Synthesize and persist the schedule as JSON.")
    Term.(const run $ topo_arg $ coll_arg $ size_arg $ fast_arg $ path)

let replay_cmd =
  let run tname path =
    let topo = topo_of_name tname in
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let s = S.Schedule.of_json (Syccl_util.Json.of_string text) in
    let report = S.Sim.run topo s in
    Format.printf "replayed %s: %d transfers, completion %.1f us@." path
      (S.Schedule.num_xfers s)
      (report.S.Sim.time *. 1e6);
    Format.printf "%a@." S.Analysis.pp (S.Analysis.analyze topo s)
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Simulate a previously saved JSON schedule.")
    Term.(const run $ topo_arg $ path)

let analyze_cmd =
  let run tname cname size fast timeline =
    let topo = topo_of_name tname in
    let coll = coll_of_name cname ~n:(T.Topology.num_gpus topo) ~size in
    let config = { Syccl.Synthesizer.default_config with fast_only = fast } in
    let o = Syccl.Synthesizer.synthesize ~config topo coll in
    List.iteri
      (fun i s ->
        Format.printf "--- phase %d ---@.%a@." i S.Analysis.pp
          (S.Analysis.analyze topo s);
        if timeline then print_string (S.Analysis.timeline topo s))
      o.schedules
  in
  let timeline =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Print a text Gantt chart.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Synthesize, then report traffic per dimension and port utilization.")
    Term.(const run $ topo_arg $ coll_arg $ size_arg $ fast_arg $ timeline)

let profile_cmd =
  let run tname noise =
    let topo = topo_of_name tname in
    let rng = Syccl_util.Xrand.create 7 in
    let probe =
      T.Profiler.simulator_probe
        ?noise:(if noise > 0.0 then Some (rng, noise) else None)
        topo
    in
    List.iter
      (fun (d, (f : T.Profiler.fit)) ->
        Format.printf "dim %d: alpha %.2f us, bandwidth %.1f GBps (residual %.2f us)@."
          d (f.alpha *. 1e6)
          (1.0 /. f.beta /. 1e9)
          (f.residual *. 1e6))
      (T.Profiler.profile ~probe topo)
  in
  let noise =
    Arg.(value & opt float 0.0
         & info [ "noise" ] ~docv:"FRAC" ~doc:"Relative measurement noise.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Fit per-dimension alpha-beta link parameters from probe sweeps.")
    Term.(const run $ topo_arg $ noise)

let lower_cmd =
  let run tname cname size fast faults domains deadline rdir audit channels
      proto check output =
    let config =
      { Syccl.Synthesizer.default_config with fast_only = fast; domains;
        deadline }
    in
    let req =
      Request.make ~config ~faults:(faults_of faults) ~topology:tname
        ~collective:cname ~size ()
    in
    let registry = registry_of rdir in
    (* The lowering check runs inside Serve on the schedules as served:
       registry hits (transported/rescaled included) and degraded rungs
       (Rerouted, fallback) are lowered exactly as the plan resolved them,
       never re-synthesized. *)
    let lower (r : Request.t) (o : Syccl.Synthesizer.outcome) =
      if not check then Ok ()
      else
        match
          S.Msccl_interp.check_lowering ~channels ~coll:r.Request.coll
            o.Syccl.Synthesizer.schedules
        with
        | Error _ as e -> e
        | Ok () ->
            Result.map_error
              (fun e -> "reference checker divergence: " ^ e)
              (Syccl_check.Refcheck.covers r.Request.topo r.Request.coll
                 o.Syccl.Synthesizer.schedules)
    in
    let so = Serve.run ?registry ?audit:(audit_of registry audit) ~lower req in
    let o = so.Serve.synth in
    (* Status goes to stderr: stdout carries the XML when no -o is given. *)
    Format.eprintf "lowering:   %s, rung %s, %d phase(s), channels %d@."
      (match so.Serve.source with
      | Serve.From_registry { hit_key; via; _ } ->
          Printf.sprintf "registry hit %s (%s)" hit_key (Registry.via_name via)
      | Serve.From_synthesis -> "fresh synthesis")
      (Syccl.Synthesizer.level_name o.Syccl.Synthesizer.degraded)
      (List.length o.Syccl.Synthesizer.schedules)
      channels;
    (match so.Serve.lower with
    | Some (Error e) -> failwith ("lower --check: " ^ e)
    | Some (Ok ()) when check ->
        Format.eprintf
          "check:      lower -> parse -> replay ok, refcheck agrees@."
    | _ -> ());
    let phases = C.phases req.Request.coll in
    List.iteri
      (fun i (phase, s) ->
        let prog =
          S.Msccl.lower ~channels ~proto
            ~name:(Printf.sprintf "syccl-%s-%d" cname i)
            ~coll:phase s
        in
        let xml = S.Msccl.emit prog in
        match output with
        | None -> print_string xml
        | Some path ->
            let path =
              if List.length phases = 1 then path
              else Printf.sprintf "%s.phase%d" path i
            in
            let oc = open_out path in
            output_string oc xml;
            close_out oc;
            Format.eprintf "wrote %s (%d steps)@." path (S.Msccl.num_steps prog))
      (List.combine phases o.Syccl.Synthesizer.schedules)
  in
  let channels =
    Arg.(
      value & opt int 1
      & info [ "channels" ] ~docv:"N"
          ~doc:"Spread connections round-robin over $(docv) channels.")
  in
  let proto =
    Arg.(
      value & opt string "Simple"
      & info [ "proto" ] ~docv:"PROTO" ~doc:"Protocol attribute (LL, LL128, Simple).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Replay the lowered program step-by-step under executor \
             semantics and cross-check data placement against the \
             reference interpreter before emitting; non-zero exit and no \
             XML on any divergence.  The verdict is recorded in the audit \
             trail either way.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write XML here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "lower"
       ~doc:
         "Serve a request (registry and degradation ladder included) and \
          lower the schedules actually served to MSCCL-executor XML (one \
          file per phase).")
    Term.(
      const run $ topo_arg $ coll_arg $ size_arg $ fast_arg $ faults_arg
      $ domains_arg $ deadline_arg $ registry_arg $ audit_arg $ channels
      $ proto $ check $ output)

let sweep_sizes = [ 1e3; 65536.0; 1048576.0; 1.6777e7; 2.68435e8; 1.073741824e9 ]

let sweep_cmd =
  let run tname cname fast faults domains deadline stats trace metrics rdir
      audit mout sjson =
    if trace <> None then Syccl_util.Trace.enable ();
    let faults = faults_of faults in
    let config =
      { Syccl.Synthesizer.default_config with fast_only = fast; domains;
        deadline }
    in
    (* One request per size, executed through the shared pipeline: batch
       execution groups them into a single synthesize_all sweep, so
       sub-solve memoization makes later sizes mostly cache hits of
       earlier ones — and with a registry, later *runs* are full hits. *)
    let requests =
      List.map
        (fun size ->
          Request.make ~config ~faults ~topology:tname ~collective:cname ~size
            ())
        sweep_sizes
    in
    let registry = registry_of rdir in
    let topo = (List.hd requests).Request.topo in
    let outcomes =
      Serve.run_batch ?registry ?audit:(audit_of registry audit) requests
    in
    Format.printf "%10s %12s %12s %12s %10s@." "size" "SyCCL" "NCCL" "TECCL"
      "ladder";
    List.iter2
      (fun (r : Request.t) (so : Serve.outcome) ->
        let coll = r.Request.coll in
        let o = so.Serve.synth in
        let nccl = Syccl_baselines.Nccl.busbw topo coll in
        let teccl =
          match
            Syccl_teccl.Teccl.busbw topo coll
              (Syccl_teccl.Teccl.synthesize ~time_budget:60.0 topo coll)
          with
          | Some b -> Printf.sprintf "%.1f" b
          | None -> "timeout"
        in
        Format.printf "%10.0f %12.1f %12.1f %12s %10s@." coll.C.size
          o.Syccl.Synthesizer.busbw nccl teccl
          (Syccl.Synthesizer.level_name o.Syccl.Synthesizer.degraded))
      requests outcomes;
    (match trace with
    | None -> ()
    | Some path ->
        Syccl_util.Trace.set_process_name ~pid:Syccl_util.Trace.synthesis_pid
          "synthesis";
        export_trace path);
    if stats then print_stats ();
    if metrics then print_metrics ();
    write_metrics_out mout;
    Option.iter
      (fun p -> write_json_file ~what:"stats-json" p (run_stats_json ()))
      sjson
  in
  let sjson =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write the sweep's counters and histogram percentiles as JSON \
             to $(docv) ($(b,-) for stdout).")
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Bus bandwidth vs data size, SyCCL vs baselines.")
    Term.(
      const run $ topo_arg $ coll_arg $ fast_arg $ faults_arg $ domains_arg
      $ deadline_arg $ stats_arg $ trace_arg $ metrics_arg $ registry_arg
      $ audit_arg $ metrics_out_arg $ sjson)

(* --- batch / warm: the JSONL front-ends over the same pipeline ---------- *)

let read_lines path =
  let ic = if path = "-" then stdin else open_in path in
  Fun.protect
    ~finally:(fun () -> if path <> "-" then close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let batch_cmd =
  let run input output fast domains deadline rdir stats audit mout sjson =
    let defaults =
      { Syccl.Synthesizer.default_config with fast_only = fast; domains;
        deadline }
    in
    let requests =
      read_lines input
      |> List.mapi (fun i line -> (i + 1, line))
      |> List.filter (fun (_, line) -> String.trim line <> "")
      |> List.map (fun (lineno, line) ->
             try Request.of_json ~defaults (Syccl_util.Json.of_string line)
             with e ->
               failwith
                 (Printf.sprintf "request line %d: %s" lineno
                    (Printexc.to_string e)))
    in
    let registry = registry_of rdir in
    let outcomes =
      Serve.run_batch ?registry ?audit:(audit_of registry audit) requests
    in
    let text =
      String.concat ""
        (List.map
           (fun o -> Syccl_util.Json.to_string (Serve.outcome_to_json o) ^ "\n")
           outcomes)
    in
    if output = "-" then print_string text
    else begin
      let oc = open_out output in
      output_string oc text;
      close_out oc
    end;
    let hits =
      List.length
        (List.filter
           (fun (o : Serve.outcome) ->
             match o.Serve.source with
             | Serve.From_registry _ -> true
             | Serve.From_synthesis -> false)
           outcomes)
    in
    Format.eprintf "batch: %d requests (%d unique), %d registry hits, %d synthesized@."
      (List.length requests)
      (List.length
         (List.sort_uniq compare (List.map Request.key requests)))
      hits
      (List.length outcomes - hits);
    if stats then print_stats ();
    write_metrics_out mout;
    Option.iter
      (fun p -> write_json_file ~what:"stats-json" p (run_stats_json ()))
      sjson
  in
  let sjson =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write the batch's counters and histogram percentiles as JSON \
             to $(docv) ($(b,-) for stdout).")
  in
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUESTS.jsonl"
          ~doc:
            "Input request file, one JSON object per line ($(b,-) for \
             stdin): {\"topology\": ..., \"collective\": ..., \"size\": \
             ..., \"fast\"?, \"domains\"?, \"deadline\"?, \"root\"?, \
             \"peer\"?, \"faults\"?}.")
  in
  let output =
    Arg.(
      value
      & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Outcome JSONL destination ($(b,-) for stdout, the default).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Execute a JSONL request file through the request→plan→execute \
          pipeline: duplicates are deduped, registry hits are served after \
          re-validation, misses are synthesized concurrently on the \
          persistent pool and stored back.")
    Term.(
      const run $ input $ output $ fast_arg $ domains_arg $ deadline_arg
      $ registry_arg $ stats_arg $ audit_arg $ metrics_out_arg $ sjson)

let warm_cmd =
  let run tname cnames sizes domains deadline rdir audit faults_k fleet
      families =
    let registry = require_registry rdir in
    let config =
      { Syccl.Synthesizer.default_config with domains; deadline }
    in
    let audit = audit_of (Some registry) audit in
    if fleet then begin
      (* Fleet warming: anchor every family × collective × bucket at root
         0; production requests at other roots / adjacent buckets are
         served by the registry's transport and cross-bucket probes. *)
      let families =
        if families = [] then Fleet.default_families else families
      in
      let collectives =
        match cnames with
        | Some c -> String.split_on_char ',' c
        | None -> Fleet.default_collectives
      in
      let anchors = if sizes = [] then Fleet.default_anchors else sizes in
      let stats =
        Fleet.warm ~registry ?audit ~config ~families ~collectives ~anchors
          ()
      in
      Format.printf "%-16s %8s %8s %8s %8s@." "family" "anchors" "stored"
        "hit" "failed";
      List.iter
        (fun (f : Fleet.family) ->
          Format.printf "%-16s %8d %8d %8d %8d@." f.Fleet.family
            f.Fleet.anchors f.Fleet.stored f.Fleet.already_hit
            f.Fleet.failed)
        stats.Fleet.families;
      Format.printf
        "fleet: %d anchors, %d stored, %d already hit, %d failed@."
        stats.Fleet.anchors stats.Fleet.stored stats.Fleet.already_hit
        stats.Fleet.failed
    end
    else begin
    let sizes = if sizes = [] then sweep_sizes else sizes in
    let cnames =
      String.split_on_char ',' (Option.value cnames ~default:"allgather")
    in
    (match faults_k with
    | None ->
        let requests =
          List.concat_map
            (fun cname ->
              List.map
                (fun size ->
                  Request.make ~config ~topology:tname ~collective:cname ~size
                    ())
                sizes)
            cnames
        in
        let outcomes = Serve.run_batch ~registry ?audit requests in
        Format.printf "%12s %10s %12s %10s@." "collective" "size" "busbw"
          "path";
        List.iter2
          (fun (r : Request.t) (so : Serve.outcome) ->
            Format.printf "%12s %10.0f %12.1f %10s@."
              (String.lowercase_ascii (C.kind_name r.Request.coll.C.kind))
              r.Request.coll.C.size so.Serve.synth.Syccl.Synthesizer.busbw
              (match so.Serve.source with
              | Serve.From_registry _ -> "hit"
              | Serve.From_synthesis -> "stored"))
          requests outcomes
    | Some k ->
        (* Fault-class warming: one synthesis per stabilizer orbit of
           <=k-link fault sets, transported to every equivalent fault set,
           so any enumerated failure is served as a registry hit. *)
        Format.printf "%12s %10s %6s %7s %7s %7s %7s %7s@." "collective"
          "size" "sets" "orbits" "hit" "synth" "transp" "resyn";
        List.iter
          (fun cname ->
            List.iter
              (fun size ->
                let st =
                  Failover.warm ~registry ?audit ~config ~topology:tname
                    ~collective:cname ~size k
                in
                Format.printf "%12s %10.0f %6d %7d %7d %7d %7d %7d@."
                  (String.lowercase_ascii cname)
                  size st.Failover.sets st.Failover.orbits
                  st.Failover.rep_hits st.Failover.rep_synthesized
                  st.Failover.transported st.Failover.resynthesized;
                if st.Failover.skipped > 0 then
                  Format.printf "%12s %10s skipped %d member(s) (degraded \
                                 representative or store failure)@."
                    "" "" st.Failover.skipped;
                if st.Failover.skipped_demand > 0 then
                  Format.printf "%12s %10s skipped %d demand-changing \
                                 class(es) (GPU faults)@."
                    "" "" st.Failover.skipped_demand)
              sizes)
          cnames)
    end;
    Format.printf "registry:   %d entries in %s@." (Registry.length registry)
      (Registry.dir registry)
  in
  let faults_k =
    Arg.(
      value
      & opt (some int) None
      & info [ "faults" ] ~docv:"K"
          ~doc:
            "Also pre-warm every fault class of up to $(docv) failed links: \
             fault sets are enumerated up to topology-symmetry (stabilizer \
             orbits), one representative per orbit is synthesized on the \
             punctured topology, and the schedule is transported along the \
             relating automorphism to the rest of the orbit — validated and \
             stored per member — so any single (or up to $(docv)-fold) link \
             failure is served as a registry hit.")
  in
  let colls =
    Arg.(
      value
      & opt (some string) None
      & info [ "c"; "collectives" ] ~docv:"COLLS"
          ~doc:
            "Comma-separated collective names to warm (default: allgather; \
             with $(b,--fleet), every collective except sendrecv).")
  in
  let sizes =
    Arg.(
      value
      & opt (list float) []
      & info [ "sizes" ] ~docv:"BYTES,..."
          ~doc:
            "Sizes to warm (defaults to the sweep series; with \
             $(b,--fleet), one anchor per bucket of the serving sweet \
             spot).")
  in
  let fleet =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Warm every named topology family across the size grid with \
             one root-0 anchor per (family, collective, bucket).  The \
             registry's symmetry probes serve the rest of the grid from \
             those anchors — other roots by stabilizer transport, adjacent \
             buckets by rescaling — so a cold family reaches hit-rate \
             saturation at anchor cost.")
  in
  let families =
    Arg.(
      value
      & opt (list string) []
      & info [ "families" ] ~docv:"NAME,..."
          ~doc:
            "Topology families for $(b,--fleet) (default: every named \
             builder family).")
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Pre-populate the schedule registry for a topology/collective \
          sweep, so production requests start as hits.  With $(b,--fleet), \
          anchor every named topology family so transported and rescaled \
          registry hits cover the production grid.  With \
          $(b,--faults K), also warm every <=K-element link/NIC fault \
          class at orbit cost: one synthesis per symmetry-equivalence \
          class of fault sets, transported to the rest (GPU fault classes \
          change the demand itself and are counted, then skipped).")
    Term.(
      const run $ topo_arg $ colls $ sizes $ domains_arg $ deadline_arg
      $ registry_arg $ audit_arg $ faults_k $ fleet $ families)

(* --- observability: audit / metrics / registry ------------------------- *)

let audit_path_of file rdir =
  match (file, registry_of rdir) with
  | Some p, _ -> p
  | None, Some reg -> Filename.concat (Registry.dir reg) Audit.default_name
  | None, None ->
      failwith "audit: pass a FILE, --registry DIR, or set SYCCL_REGISTRY"

let audit_cmd =
  let run file rdir tail fingerprint reason aggregate json =
    let path = audit_path_of file rdir in
    let records, bad = Audit.read path in
    let records =
      List.filter
        (fun (r : Audit.record) ->
          (match fingerprint with
          | None -> true
          | Some fp -> r.Audit.fingerprint = fp)
          &&
          match reason with
          | None -> true
          | Some re ->
              r.Audit.probe = re || r.Audit.rung = re
              || r.Audit.degrade_reason = Some re)
        records
    in
    let shown =
      match tail with
      | None -> records
      | Some n ->
          let len = List.length records in
          List.filteri (fun i _ -> i >= len - n) records
    in
    if aggregate then begin
      let tally assoc k =
        match List.assoc_opt k !assoc with
        | Some n -> assoc := (k, n + 1) :: List.remove_assoc k !assoc
        | None -> assoc := !assoc @ [ (k, 1) ]
      in
      let by_probe = ref [] and by_rung = ref [] and by_fp = ref [] in
      let stored = ref 0 and consumed = ref 0.0 in
      List.iter
        (fun (r : Audit.record) ->
          tally by_probe r.Audit.probe;
          tally by_rung r.Audit.rung;
          tally by_fp r.Audit.fingerprint;
          if r.Audit.stored then incr stored;
          consumed := !consumed +. r.Audit.consumed_s)
        records;
      Format.printf "%d record%s, %d stored back, %.2fs synthesis consumed@."
        (List.length records)
        (if List.length records = 1 then "" else "s")
        !stored !consumed;
      let table name assoc =
        if !assoc <> [] then begin
          Format.printf "by %s:@." name;
          List.iter
            (fun (k, n) -> Format.printf "  %-40s %6d@." k n)
            (List.sort (fun (_, a) (_, b) -> compare b a) !assoc)
        end
      in
      table "probe" by_probe;
      table "rung" by_rung;
      table "fingerprint" by_fp
    end
    else
      List.iter
        (fun (r : Audit.record) ->
          if json then
            print_endline (Syccl_util.Json.to_string (Audit.record_to_json r))
          else
            Format.printf
              "%.3f %-10s %-8.2e %-20s probe=%-12s rung=%-8s %8.1fus \
               busbw=%6.1f synth=%.3fs%s%s@."
              r.Audit.ts r.Audit.collective r.Audit.size r.Audit.topology
              r.Audit.probe r.Audit.rung (r.Audit.time_s *. 1e6) r.Audit.busbw
              r.Audit.consumed_s
              (if r.Audit.stored then " stored" else "")
              (match r.Audit.degrade_reason with
              | None -> ""
              | Some re -> " (" ^ re ^ ")"))
        shown;
    if bad > 0 then
      Format.eprintf "audit: skipped %d unparseable line%s in %s@." bad
        (if bad = 1 then "" else "s")
        path
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Audit JSONL file (defaults to $(i,REGISTRY)/audit.jsonl of the \
             active registry).")
  in
  let tail =
    Arg.(
      value
      & opt (some int) None
      & info [ "tail" ] ~docv:"N" ~doc:"Only show the last $(docv) records.")
  in
  let fingerprint =
    Arg.(
      value
      & opt (some string) None
      & info [ "fingerprint" ] ~docv:"FP"
          ~doc:"Only records for this topology fingerprint.")
  in
  let reason =
    Arg.(
      value
      & opt (some string) None
      & info [ "reason" ] ~docv:"R"
          ~doc:
            "Only records whose probe outcome (e.g. $(b,miss.corrupt)), \
             ladder rung (e.g. $(b,fallback)) or degrade reason matches \
             $(docv).")
  in
  let aggregate =
    Arg.(
      value & flag
      & info [ "aggregate" ]
          ~doc:
            "Print counts by probe outcome, ladder rung and fingerprint \
             instead of individual records.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Re-emit the selected records as canonical JSONL.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Tail, filter and aggregate the per-request audit trail written by \
          synth/sweep/batch/warm next to the registry.")
    Term.(
      const run $ file $ registry_arg $ tail $ fingerprint $ reason
      $ aggregate $ json)

let metrics_cmd =
  let run from_audit rdir out =
    (match from_audit with
    | None -> ()
    | Some file ->
        let path =
          if file = "registry" then audit_path_of None rdir else file
        in
        let records, bad = Audit.read path in
        List.iter Audit.replay_counters records;
        if bad > 0 then
          Format.eprintf "metrics: skipped %d unparseable line%s in %s@." bad
            (if bad = 1 then "" else "s")
            path);
    let text = Syccl_util.Counters.to_prometheus () in
    match out with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc
  in
  let from_audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-audit" ] ~docv:"FILE"
          ~doc:
            "Replay an audit JSONL trail into the counters first, so a \
             collected trail can be exposed after the serving process is \
             gone ($(b,registry) for the active registry's trail).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Expose every counter and histogram in Prometheus text format \
          (0.0.4): counters as $(b,counter), gauges as $(b,gauge), \
          histograms with cumulative buckets, _sum and _count.")
    Term.(const run $ from_audit $ registry_arg $ out)

let registry_cmd =
  let run action key rdir tname max_entries max_bytes =
    let reg = require_registry rdir in
    let topo = Option.map topo_of_name tname in
    let keys = Registry.keys reg in
    match action with
    | "ls" ->
        Format.printf "%-16s %-12s %10s %10s %8s %6s@." "key" "kind" "size"
          "cost_us" "blocks" "schema";
        List.iter
          (fun k ->
            match Registry.load reg k with
            | Ok (m, _) ->
                Format.printf "%-16s %-12s %10.0f %10.1f %8d %6d@." k
                  m.Registry.m_kind m.Registry.m_size
                  (m.Registry.m_cost *. 1e6)
                  m.Registry.m_blocks m.Registry.m_schema
            | Error e -> Format.printf "%-16s CORRUPT: %s@." k e)
          keys
    | "stats" ->
        let total_bytes = ref 0 and corrupt = ref 0 in
        let buckets = ref [] and schemas = ref [] in
        let tally assoc k v =
          match List.assoc_opt k !assoc with
          | Some (n, b) -> assoc := (k, (n + 1, b + v)) :: List.remove_assoc k !assoc
          | None -> assoc := (k, (1, v)) :: !assoc
        in
        List.iter
          (fun k ->
            match Registry.load reg k with
            | Ok (m, _) ->
                total_bytes := !total_bytes + m.Registry.m_bytes;
                tally buckets
                  (Printf.sprintf "%s/2^%d" m.Registry.m_kind
                     (Registry.size_bucket m.Registry.m_size))
                  m.Registry.m_bytes;
                tally schemas
                  (Printf.sprintf "schema v%d" m.Registry.m_schema)
                  m.Registry.m_bytes
            | Error _ -> incr corrupt)
          keys;
        Format.printf "%s: %d entries, %d bytes, %d corrupt@."
          (Registry.dir reg) (List.length keys) !total_bytes !corrupt;
        let layout = Registry.layout_stats reg in
        Format.printf
          "layout:     v%s, %d sharded in %d shard dir%s, %d legacy flat%s@."
          (match Registry.manifest reg with
          | Ok v -> string_of_int v
          | Error e -> "? (" ^ e ^ ")")
          layout.Registry.sharded layout.Registry.shards_in_use
          (if layout.Registry.shards_in_use = 1 then "" else "s")
          layout.Registry.flat
          (if layout.Registry.flat > 0 then
             " (run `syccl registry compact` to migrate)"
           else "");
        List.iter
          (fun (k, (n, b)) -> Format.printf "  %-28s %4d entries %10d bytes@." k n b)
          (List.sort compare !buckets);
        List.iter
          (fun (k, (n, b)) -> Format.printf "  %-28s %4d entries %10d bytes@." k n b)
          (List.sort compare !schemas);
        (* Hit provenance: which stored entries actually serve traffic,
           according to the registry-adjacent audit trail. *)
        let audit = Filename.concat (Registry.dir reg) Audit.default_name in
        if Sys.file_exists audit then begin
          let records, _bad = Audit.read audit in
          let hits = ref [] in
          List.iter
            (fun (r : Audit.record) ->
              match r.Audit.hit_key with
              | Some hk -> (
                  match List.assoc_opt hk !hits with
                  | Some n -> hits := (hk, n + 1) :: List.remove_assoc hk !hits
                  | None -> hits := (hk, 1) :: !hits)
              | None -> ())
            records;
          Format.printf "hit provenance (%d audited requests):@."
            (List.length records);
          List.iter
            (fun (k, n) ->
              Format.printf "  %-16s served %d hit%s@." k n
                (if n = 1 then "" else "s"))
            (List.sort (fun (_, a) (_, b) -> compare b a) !hits)
        end
    | "inspect" ->
        let key =
          match key with
          | Some k -> k
          | None -> failwith "registry inspect: pass an entry KEY"
        in
        (match Registry.load reg key with
        | Error e -> failwith (Printf.sprintf "entry %s: %s" key e)
        | Ok (m, schedules) ->
            Format.printf "key:         %s@." m.Registry.m_key;
            Format.printf "fingerprint: %s@." m.Registry.m_fingerprint;
            Format.printf "collective:  %s root=%d peer=%d size=%.0f@."
              m.Registry.m_kind m.Registry.m_root m.Registry.m_peer
              m.Registry.m_size;
            Format.printf "cost:        %.1f us at blocks=%d@."
              (m.Registry.m_cost *. 1e6)
              m.Registry.m_blocks;
            Format.printf "chosen:      %s@." m.Registry.m_chosen;
            Format.printf "schema:      v%d, %d bytes on disk@."
              m.Registry.m_schema m.Registry.m_bytes;
            List.iteri
              (fun i s ->
                Format.printf "phase %d:     %d transfers, %d chunks@." i
                  (S.Schedule.num_xfers s)
                  (Array.length s.S.Schedule.chunks))
              schedules)
    | "verify" ->
        let bad = ref 0 in
        List.iter
          (fun k ->
            match Registry.verify_entry reg ?topo k with
            | Registry.Entry_ok { simulated } ->
                Format.printf "%-16s ok (re-simulated %.1f us)@." k
                  (simulated *. 1e6)
            | Registry.Entry_unverified m ->
                Format.printf
                  "%-16s unverified (no topology with fingerprint %s given)@."
                  k m.Registry.m_fingerprint
            | Registry.Entry_corrupt e ->
                incr bad;
                Format.printf "%-16s CORRUPT: %s@." k e
            | Registry.Entry_invalid { error; _ } ->
                incr bad;
                Format.printf "%-16s INVALID: %s@." k error
            | Registry.Entry_slower { meta; simulated } ->
                incr bad;
                Format.printf
                  "%-16s SLOWER: re-simulates %.1f us vs stored %.1f us@." k
                  (simulated *. 1e6)
                  (meta.Registry.m_cost *. 1e6))
          keys;
        Format.printf "verified %d entries, %d bad@." (List.length keys) !bad;
        if !bad > 0 then exit 1
    | "compact" ->
        (* Offline maintenance: the only registry action that deletes.
           LRU recency comes from the audit trail's hit provenance, so an
           entry that serves traffic (directly or as a transport source)
           outlives an idle one. *)
        let last_used =
          let audit = Filename.concat (Registry.dir reg) Audit.default_name in
          if Sys.file_exists audit then begin
            let records, _bad = Audit.read audit in
            let seen = Hashtbl.create 64 in
            List.iter
              (fun (r : Audit.record) ->
                match r.Audit.hit_key with
                | Some hk ->
                    let ts =
                      match Hashtbl.find_opt seen hk with
                      | Some t -> Float.max t r.Audit.ts
                      | None -> r.Audit.ts
                    in
                    Hashtbl.replace seen hk ts
                | None -> ())
              records;
            fun k -> Hashtbl.find_opt seen k
          end
          else fun _ -> None
        in
        let s = Registry.compact reg ?max_entries ?max_bytes ~last_used () in
        Format.printf
          "compacted %s: %d migrated, %d corrupt removed, %d dominated \
           pruned, %d evicted; %d entr%s (%d bytes) kept@."
          (Registry.dir reg) s.Registry.migrated s.Registry.corrupt_removed
          s.Registry.dominated_removed s.Registry.evicted s.Registry.kept
          (if s.Registry.kept = 1 then "y" else "ies")
          s.Registry.kept_bytes
    | other ->
        failwith
          (Printf.sprintf
             "unknown registry action %S (expected \
              stats|ls|inspect|verify|compact)"
             other)
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:
            "One of $(b,stats), $(b,ls), $(b,inspect), $(b,verify), \
             $(b,compact).")
  in
  let key =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"KEY" ~doc:"Entry key (for $(b,inspect)).")
  in
  let topo =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "topology" ] ~docv:"TOPO"
          ~doc:
            "Topology to verify entries against (entries whose fingerprint \
             differs stay unverified).")
  in
  let max_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ] ~docv:"N"
          ~doc:
            "For $(b,compact): evict least-recently-used entries until at \
             most $(docv) remain.")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"B"
          ~doc:
            "For $(b,compact): evict least-recently-used entries until at \
             most $(docv) bytes remain on disk.")
  in
  Cmd.v
    (Cmd.info "registry"
       ~doc:
         "Introspect and maintain the on-disk schedule registry: \
          per-bucket stats with layout and audit-derived hit provenance \
          ($(b,stats)), entry listing ($(b,ls)), one entry in full \
          ($(b,inspect KEY)), a read-only re-validation / re-simulation \
          pass over every entry ($(b,verify)) — corrupt, invalid or \
          cost-regressed entries are reported, never deleted, and the \
          command exits non-zero — or offline compaction ($(b,compact)): \
          migrate legacy flat entries into shards, delete corrupt \
          entries, prune transport-dominated duplicates, and evict by \
          audit-trail recency to $(b,--max-entries)/$(b,--max-bytes).")
    Term.(
      const run $ action $ key $ registry_arg $ topo $ max_entries
      $ max_bytes)

let fuzz_cmd =
  let run seed cases props shrink domains =
    let cases =
      match cases with
      | Some n -> n
      | None -> Syccl_check.Fuzz.default_cases ()
    in
    let props = if props = [] then None else Some props in
    let report =
      Syccl_check.Fuzz.run ?props ~progress:Format.std_formatter ~domains
        ~shrink ~seed ~cases ()
    in
    Syccl_check.Fuzz.pp_report Format.std_formatter report;
    if report.Syccl_check.Fuzz.failures <> [] then exit 1
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Base random seed.  A failure is replayed exactly by the same \
             seed, property and case index.")
  in
  let cases =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "cases" ] ~docv:"N"
          ~doc:
            "Cases per property (heavy properties — the differential \
             synthesis oracle, registry round-trips — run N/8).  Defaults \
             to $(b,SYCCL_FUZZ_CASES) when set, else 50.")
  in
  let props =
    Arg.(
      value
      & opt (list string) []
      & info [ "p"; "props" ] ~docv:"NAME,..."
          ~doc:
            "Only run the named properties (default: the whole catalogue).")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Greedily shrink counterexample schedules to a 1-minimal \
             witness before reporting them.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based fuzzing and differential verification: metamorphic \
          laws of the schedule IR (reverse involution, scale linearity, \
          union dominance, automorphism transport), validator soundness \
          against an independent reference checker under schedule \
          mutations, registry invariants, and a differential oracle pitting \
          the full synthesis pipeline against greedy, TECCL and NCCL \
          baselines.  Exits non-zero if any counterexample survives.")
    Term.(const run $ seed $ cases $ props $ shrink $ domains_arg)

let () =
  let doc = "SyCCL: symmetry-guided collective communication schedule synthesis" in
  let cmd =
    Cmd.group (Cmd.info "syccl_cli" ~doc)
      [
        topo_cmd; synth_cmd; sweep_cmd; batch_cmd; warm_cmd; lower_cmd;
        analyze_cmd; profile_cmd; save_cmd; replay_cmd; explain_cmd;
        audit_cmd; metrics_cmd; registry_cmd; fuzz_cmd;
      ]
  in
  (* Bad user input (unknown topology, malformed --faults spec, unknown
     registry key, ...) is reported by the library as
     Failure/Invalid_argument, and operator problems (an unreadable shard
     directory, a permission-denied registry) as Sys_error/Unix_error;
     print the one-line message, not an "internal error" backtrace dump. *)
  exit
    (try Cmd.eval ~catch:false cmd with
     | Failure msg | Invalid_argument msg | Sys_error msg ->
         Printf.eprintf "syccl_cli: %s\n" msg;
         Cmd.Exit.internal_error
     | Unix.Unix_error (e, fn, arg) ->
         Printf.eprintf "syccl_cli: %s: %s (%s)\n" fn (Unix.error_message e)
           arg;
         Cmd.Exit.internal_error)
