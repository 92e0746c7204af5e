module Topology = Syccl_topology.Topology
module Link = Syccl_topology.Link

let gpu_list l = String.concat "," (List.map string_of_int l)

let sketch topo (s : Sketch.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s sketch rooted at GPU %d, %d stage%s\n"
       (match s.Sketch.kind with `Broadcast -> "Broadcast" | `Scatter -> "Scatter")
       s.Sketch.root s.Sketch.num_stages
       (if s.Sketch.num_stages = 1 then "" else "s"));
  let sds = Sketch.subdemands topo s in
  for k = 0 to s.Sketch.num_stages - 1 do
    Buffer.add_string buf (Printf.sprintf "  stage %d:\n" k);
    List.iter
      (fun (sd : Sketch.subdemand) ->
        if sd.Sketch.sd_stage = k then begin
          let d = Topology.dim topo sd.Sketch.sd_dim in
          Buffer.add_string buf
            (Printf.sprintf "    R_{%d,%d,%d} over %s (%s): {%s} -> {%s}\n" k
               sd.Sketch.sd_dim sd.Sketch.sd_group d.Topology.dim_name
               (Format.asprintf "%a" Link.pp d.Topology.link)
               (gpu_list sd.Sketch.srcs) (gpu_list sd.Sketch.dsts))
        end)
      sds
  done;
  let w = Sketch.dim_workload topo s in
  Buffer.add_string buf "  per-dimension workload: ";
  Array.iteri
    (fun d v ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s=%.0f"
           (if d > 0 then ", " else "")
           (Topology.dim topo d).Topology.dim_name v))
    w;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let combo topo (c : Combine.combo) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "combination %s\n" c.Combine.desc);
  let roots = Hashtbl.create 16 in
  List.iter
    (fun ((s : Sketch.t), f) ->
      Hashtbl.replace roots s.Sketch.root
        (f +. Option.value (Hashtbl.find_opt roots s.Sketch.root) ~default:0.0))
    c.Combine.sketches;
  Buffer.add_string buf
    (Printf.sprintf "  %d sketches over %d roots\n"
       (List.length c.Combine.sketches) (Hashtbl.length roots));
  (* Fraction-weighted workload per dimension vs bandwidth share. *)
  let nd = Topology.num_dims topo in
  let w = Array.make nd 0.0 in
  List.iter
    (fun (s, f) ->
      Array.iteri (fun d v -> w.(d) <- w.(d) +. (f *. v)) (Sketch.dim_workload topo s))
    c.Combine.sketches;
  let total = Array.fold_left ( +. ) 0.0 w in
  let share = Topology.bandwidth_share topo in
  for d = 0 to nd - 1 do
    let frac = if total > 0.0 then w.(d) /. total else 0.0 in
    Buffer.add_string buf
      (Printf.sprintf "  dim %d (%s): %.0f%% of traffic vs %.0f%% of bandwidth%s\n" d
         (Topology.dim topo d).Topology.dim_name (100.0 *. frac)
         (100.0 *. share.(d))
         (if frac > share.(d) +. 0.15 then "  <- likely bottleneck" else ""))
  done;
  (match c.Combine.sketches with
  | (s, f) :: _ ->
      Buffer.add_string buf
        (Printf.sprintf "  representative sketch (fraction %.3f):\n" f);
      Buffer.add_string buf (sketch topo s)
  | [] -> ());
  Buffer.contents buf

(* Critical-path analysis of one schedule phase: which port the makespan
   rests on, how saturated the top ports are, and per dimension whether the
   wire time is latency (α) or bandwidth (β). *)
let phase topo i s =
  let module Analysis = Syccl_sim.Analysis in
  let buf = Buffer.create 256 in
  let a = Analysis.analyze topo s in
  Buffer.add_string buf
    (Printf.sprintf "phase %d: %d transfers, makespan %.1f us, %.2f hops/delivery\n"
       i (Syccl_sim.Schedule.num_xfers s) (a.Analysis.makespan *. 1e6)
       a.Analysis.avg_hops);
  Array.iteri
    (fun d bytes ->
      if bytes > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf
             "  dim %d (%s): %.2f MB, alpha %.0f%% / beta %.0f%% of wire time\n"
             d (Syccl_topology.Topology.dim topo d).Syccl_topology.Topology.dim_name
             (bytes /. 1e6)
             (100.0 *. Analysis.alpha_share a d)
             (100.0 *. (1.0 -. Analysis.alpha_share a d))))
    a.Analysis.dim_bytes;
  List.iteri
    (fun j (p : Analysis.port_stats) ->
      if j < 4 then
        Buffer.add_string buf
          (Printf.sprintf "  port gpu%d/pg%d/%s: busy %.1f us, %.0f%% utilized%s\n"
             p.Analysis.gpu p.Analysis.port_group
             (match p.Analysis.dir with `Egress -> "out" | `Ingress -> "in")
             (p.Analysis.busy *. 1e6)
             (p.Analysis.utilization *. 100.0)
             (if j = 0 then "  <- bottleneck" else "")))
    a.Analysis.ports;
  Buffer.contents buf

let outcome ?provenance topo (o : Synthesizer.outcome) =
  let b = o.Synthesizer.breakdown in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "winner: %s\npredicted: %.1f us, %.1f GBps busbw\nsynthesis: %.2fs \
        (search %.2fs, combine %.2fs, coarse solve %.2fs, fine solve %.2fs)\n\
        explored: %d sketches, %d combinations\n\
        solver: %d sub-solve memo hits / %d misses, %d MILP models, %d B&B nodes\n"
       o.Synthesizer.chosen (o.Synthesizer.time *. 1e6) o.Synthesizer.busbw
       o.Synthesizer.synth_time b.Synthesizer.search_s b.Synthesizer.combine_s
       b.Synthesizer.solve1_s b.Synthesizer.solve2_s o.Synthesizer.num_sketches
       o.Synthesizer.num_combos b.Synthesizer.cache_hits b.Synthesizer.cache_misses
       b.Synthesizer.milp_solves b.Synthesizer.milp_nodes);
  Buffer.add_string buf
    (Printf.sprintf "ladder: %s rung%s\n"
       (Synthesizer.level_name o.Synthesizer.degraded)
       (match o.Synthesizer.degrade_reason with
       | None -> ""
       | Some reason -> Printf.sprintf " (degraded: %s)" reason));
  (match provenance with
  | None -> ()
  | Some p -> Buffer.add_string buf (Printf.sprintf "provenance: %s\n" p));
  Buffer.add_string buf
    (Printf.sprintf "schedule: %s\n"
       (String.concat " + "
          (List.map
             (fun s ->
               Printf.sprintf "%d transfers" (Syccl_sim.Schedule.num_xfers s))
             o.Synthesizer.schedules)));
  List.iteri
    (fun i s -> Buffer.add_string buf (phase topo i s))
    o.Synthesizer.schedules;
  Buffer.contents buf
