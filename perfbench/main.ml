(* Repo benchmark: one closed-loop client sends Request.t values through
   Syccl_serve.Serve.run — the path `syccl synth` and `syccl lower --check`
   take — with the default synthesis config (domains = 1).

     main.exe --workload cold|hit|deadline --seed N --seconds S --trace 0|1

   Untraced runs (--trace 0) measure the end-to-end metrics with
   Syccl_util.Trace off; their times are in reference seconds, CPU time
   scaled by the host's speed on a fixed kernel (see "host speed" below),
   and the wall times are kept in the report.  Traced runs (--trace 1) run
   the timed phase with tracing on: bench-side spans wrap each call into a
   layer's public function on the inputs the request used, the program's
   own synthesis spans are collected, Syccl_util.Counters deltas are read
   around every request, and one Perfetto trace is exported.  The last
   stdout line is a JSON object {correct, attempted, failed, metrics}; the
   lines before it name every metric with its unit.  Run output lives
   under perfbench/out/ and the run-private part of it is deleted on
   exit. *)

module Json = Syccl_util.Json
module Trace = Syccl_util.Trace
module Counters = Syccl_util.Counters
module Clock = Syccl_util.Clock
module Topology = Syccl_topology.Topology
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate
module Msccl = Syccl_sim.Msccl
module Msccl_interp = Syccl_sim.Msccl_interp
module Refcheck = Syccl_check.Refcheck
module Synth = Syccl.Synthesizer
module Request = Syccl_serve.Request
module Registry = Syccl_serve.Registry
module Audit = Syccl_serve.Audit
module Serve = Syccl_serve.Serve

let out_dir = Filename.concat "perfbench" "out"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ---------------------------------------------------------------- files *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> output_string oc data)

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let write_file path data =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc data);
  Sys.rename tmp path

(* ---------------------------------------------------------------- stats *)

let median xs = Syccl_util.Stats.percentile 0.5 xs

(* Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))-
   weighted mean of all order statistics.  Latency quantiles use it because
   host noise reorders samples, and a nearest-rank cold median sits on the
   gap between the a100-16 and the a100-32 requests. *)
let hd_quantile p xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  let alpha = p *. float (n + 1) and beta = (1.0 -. p) *. float (n + 1) in
  let log_pdf x = ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)) in
  (* 100 midpoints per order statistic integrate the Beta density *)
  let m = 100 * n in
  let pts = Array.init m (fun k -> (float k +. 0.5) /. float m) in
  let top = Array.fold_left (fun acc x -> Float.max acc (log_pdf x)) neg_infinity pts in
  let w = Array.make n 0.0 in
  Array.iteri (fun k x -> w.(k / 100) <- w.(k / 100) +. exp (log_pdf x -. top)) pts;
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i wi ->
      num := !num +. (wi *. a.(i));
      den := !den +. wi)
    w;
  !num /. !den

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float (List.length xs))

let ratio a b = if b = 0 then 0.0 else float a /. float b

(* ----------------------------------------------------------- host speed *)

(* The host is a share of a machine whose speed moves by up to 2x between
   runs and within one, and raw times move with it.  Timed calls are
   therefore measured against a fixed reference kernel: a sample of it is
   taken right before and right after each call, and inside a call after
   every 0.1 s of user CPU time (ITIMER_VIRTUAL), so evenly over the
   call's CPU time.  The call's CPU time, less that of the samples inside
   it, is scaled by [calib_nominal] / (mean kernel CPU time over the
   call's samples).  The result is in reference seconds, the CPU time the
   call would take on a host where the kernel takes [calib_nominal].  CPU
   time, not wall time, is scaled because time the process spends
   descheduled is host noise too.  The kernel mixes what synthesis spends
   its time on: hashing, float array sweeps, and building and sorting a
   list of tuples, which allocates.  The minor heap is emptied before each
   sample, so the kernel's minor collections find only its own data. *)

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let calib_keys = Array.init 4096 (fun i -> (i * 2654435761) land 0xfffff)

let calib_table =
  let h = Hashtbl.create 4096 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) calib_keys;
  h

let calib_floats = Array.init 16384 (fun i -> float ((i * 7919) land 1023))
let calib_scratch = Array.make 1024 0

let calib_once () =
  let acc = ref 0 in
  Array.iter (fun k -> acc := !acc + Hashtbl.find calib_table k) calib_keys;
  Array.blit calib_keys 0 calib_scratch 0 1024;
  Array.sort Int.compare calib_scratch;
  acc := !acc + calib_scratch.(512);
  let f = ref 0.0 in
  for r = 1 to 4 do
    for i = 0 to Array.length calib_floats - 1 do
      f := !f +. (calib_floats.(i) *. float ((i + r) land 7))
    done
  done;
  let l = List.init 2000 (fun i -> ((i * 40503) land 0xffff, float i)) in
  !acc + int_of_float !f + fst (List.hd (List.sort compare l))

(* A sample is the mean CPU time of [calib_runs] kernel runs. *)
let calib_runs = 5

(* CPU seconds of one kernel run on the reference host, a quiet 2-vCPU Xeon
   VM at 2.1 GHz: the hashing, sort and float part took 0.295 ms there,
   and the whole kernel takes 2.0x as long as that part. *)
let calib_nominal = 0.0006

(* Every sample's CPU seconds, and the samples of the last second with
   their wall time, newest first. *)
let calib_samples = ref []
let calib_recent = ref []

let calib_sample () =
  Gc.minor ();
  let c0 = cpu_time () in
  for _ = 1 to calib_runs do
    ignore (Sys.opaque_identity (calib_once ()))
  done;
  let k = (cpu_time () -. c0) /. float calib_runs in
  let now = Clock.now () in
  calib_samples := k :: !calib_samples;
  calib_recent := (now, k) :: List.filter (fun (t, _) -> now -. t < 1.0) !calib_recent;
  k

(* Samples taken inside the running timed call, with their CPU and wall
   cost. *)
let calib_inside = ref None
let calib_inside_cost = ref (0.0, 0.0)

let calib_tick _ =
  match !calib_inside with
  | Some ks ->
      (* a tick that lands during this sample is ignored *)
      calib_inside := None;
      let w0 = Clock.now () and c0 = cpu_time () in
      let k = calib_sample () in
      let cpu, wall = !calib_inside_cost in
      calib_inside_cost :=
        (cpu +. (cpu_time () -. c0), wall +. (Clock.now () -. w0));
      calib_inside := Some (k :: ks)
  | None -> ()

let calib_interval = 0.1

let start_calib_ticks () =
  Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle calib_tick);
  ignore
    (Unix.setitimer Unix.ITIMER_VIRTUAL
       { Unix.it_interval = calib_interval; it_value = calib_interval })

(* The latest sample, taken afresh if it is over 0.2 s old. *)
let calib_now () =
  match !calib_recent with
  | (t, k) :: _ when Clock.now () -. t < 0.2 -> k
  | _ -> calib_sample ()

(* A deadline of [d] reference seconds, in wall seconds on this host now
   (mean of the last second's samples), plus the samples the request will
   run inside it: a deadlined request gets the same work done before its
   budget runs out on a slow host as on a fast one. *)
let wall_deadline d =
  ignore (calib_now ());
  let ks = List.map snd !calib_recent in
  let k = List.fold_left ( +. ) 0.0 ks /. float (List.length ks) in
  d *. k /. calib_nominal *. (1.0 +. (float calib_runs *. k /. calib_interval))

(* Run [f]; return its result, its wall seconds and its reference seconds,
   both without the samples inside it.  The sample before it is reused if
   it is under 0.2 s old, so back-to-back calls share one.  A call that
   overruns its [deadline], [(d, wall_deadline d)], spent its first
   [wall_deadline d] wall seconds, [d] reference seconds, on its budget
   and the rest on the overrun; the CPU time of the overrun, taken as its
   wall share of the CPU time, is scaled. *)
let timed ?deadline f =
  let k0 = calib_now () in
  calib_inside := Some [];
  calib_inside_cost := (0.0, 0.0);
  let w0 = Clock.now () and c0 = cpu_time () in
  let r =
    try f ()
    with e ->
      calib_inside := None;
      raise e
  in
  let inside = Option.value ~default:[] !calib_inside in
  calib_inside := None;
  let w1 = Clock.now () and c1 = cpu_time () in
  let cost_cpu, cost_wall = !calib_inside_cost in
  let cpu = c1 -. c0 -. cost_cpu and wall = w1 -. w0 -. cost_wall in
  let k1 = calib_sample () in
  let ks = k0 :: k1 :: inside in
  let scale = calib_nominal *. float (List.length ks) /. List.fold_left ( +. ) 0.0 ks in
  match deadline with
  | Some (d, dw) when wall > dw ->
      (r, wall, d +. (cpu *. (1.0 -. (dw /. wall)) *. scale))
  | _ -> (r, wall, cpu *. scale)

(* Median host speed over the run, reference kernel time / measured. *)
let host_speed () = calib_nominal /. median !calib_samples

(* ------------------------------------------------------------- requests *)

type spec = {
  name : string;
  topo : string;
  coll : string;
  size : float;
  root : int option;
  deadline : float option;
  lower : bool;  (** attach the `lower --check` hook *)
}

let spec ?root ?deadline ?(lower = false) topo coll size =
  let name =
    String.concat "/"
      ([ topo; coll; Printf.sprintf "%.0f" size ]
      @ (match root with Some r -> [ Printf.sprintf "root%d" r ] | None -> [])
      @ (match deadline with
        | Some d -> [ Printf.sprintf "dl%gs" d ]
        | None -> [])
      @ if lower then [ "lower" ] else [])
  in
  { name; topo; coll; size; root; deadline; lower }

let kib = 1024.0
let mib = 1024.0 *. 1024.0
let colls4 = [ "allgather"; "reducescatter"; "allreduce"; "alltoall" ]

let a100_grid =
  List.concat_map
    (fun topo ->
      List.concat_map
        (fun coll -> List.map (spec topo coll) [ 64.0 *. kib; 16.0 *. mib ])
        colls4)
    [ "a100-16"; "a100-32" ]

let cold_grid = a100_grid @ [ spec "h800-64" "allgather" (16.0 *. mib) ]

(* Deadlined cold requests.  h800-64 is left out: one deadlined h800-64
   request takes 1.7-14 s depending on where its budget runs out, so the
   few a run could afford would not average out. *)
let deadline_grid =
  let at colls d =
    List.map (fun c -> spec ~deadline:d "a100-32" c (16.0 *. mib)) colls
  in
  at [ "allgather"; "alltoall" ] 0.1 @ at [ "allreduce"; "reducescatter" ] 0.5

(* Registry anchors the hit workload warms. *)
let hit_anchors =
  a100_grid @ [ spec ~root:0 "a100-16" "broadcast" (16.0 *. mib) ]

(* Topologies are resolved once per name; clearing the table makes set-up
   pay construction again. *)
let topos : (string, Topology.t) Hashtbl.t = Hashtbl.create 8

let topo_of name =
  match Hashtbl.find_opt topos name with
  | Some t -> t
  | None ->
      let t = Request.topo_of_name name in
      Hashtbl.replace topos name t;
      t

let request_of (s : spec) =
  let topo = topo_of s.topo in
  {
    Request.topo_name = s.topo;
    topo;
    coll =
      Request.coll_of_name ?root:s.root s.coll ~n:(Topology.num_gpus topo)
        ~size:s.size;
    config = Synth.default_config;
  }

let shuffled rng specs =
  List.map snd
    (List.sort compare (List.map (fun s -> (Random.State.bits rng, s)) specs))

(* The hit workload's seeded request stream.  Each round sends, for every
   anchor, one request at the warmed size, one elsewhere inside its
   power-of-two bucket, and one in each adjacent bucket; rooted anchors are
   asked for other roots; two of each anchor's four requests (drawn from
   the seed) carry the lowering hook.  Each round is shuffled. *)
let hit_round rng =
  let jitter () = 1.0 +. Random.State.float rng 0.999 in
  shuffled rng
    (List.concat_map
       (fun (a : spec) ->
         let sizes =
           [
             a.size;
             Float.round (a.size *. jitter ());
             Float.round (a.size *. 2.0 *. jitter ());
             Float.round (a.size *. 0.5 *. jitter ());
           ]
         in
         (* one of the two in-bucket requests and one of the two
            adjacent-bucket ones: near-miss probes cost more than in-bucket
            ones, so a free pick of two would move the latency mix with
            the seed *)
         let lowered = [ Random.State.int rng 2; 2 + Random.State.int rng 2 ] in
         List.mapi
           (fun i size ->
             let root =
               Option.map
                 (fun r ->
                   let n = Topology.num_gpus (topo_of a.topo) in
                   (r + 1 + Random.State.int rng (n - 1)) mod n)
                 a.root
             in
             spec ?root ~lower:(List.mem i lowered) a.topo a.coll size)
           sizes)
       hit_anchors)

(* ------------------------------------------------------- layer accounts *)

(* Per-layer sums of the traced pass, keyed by metric name. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace acc name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc name))

let get name = Option.value ~default:0.0 (Hashtbl.find_opt acc name)

(* Run [f] inside a bench-side span and add its wall time to [metric]. *)
let layer metric span f =
  let t0 = Clock.now () in
  let r = Trace.with_span ~cat:"bench" span f in
  let dt = Clock.now () -. t0 in
  add metric dt;
  (r, dt)

(* Counters read around every traced request; the histogram sum gives the
   LP pivot total. *)
let counter_names =
  [
    "cache.subsolve.hits";
    "cache.subsolve.misses";
    "subsolve.budget_skips";
    "milp.solves";
    "milp.nodes";
    "milp.flow_certified";
    "registry.hit.transported";
    "registry.hit.scaled_cross";
    "registry.miss.transport_rejected";
  ]

let pivots () =
  let s = (Counters.hist_stats (Counters.histogram "lp.pivots_per_solve")).sum in
  if Float.is_nan s then 0.0 else s

let read_counters () =
  ("lp.pivots", pivots ())
  :: List.map (fun n -> (n, Counters.value n)) counter_names

(* ---------------------------------------------------------- lowering *)

(* The hook `syccl lower --check` installs: executor-level lowering replay,
   then the independent reference checker. *)
let lower_check (r : Request.t) (o : Synth.outcome) =
  match
    Msccl_interp.check_lowering ~channels:1 ~coll:r.Request.coll
      o.Synth.schedules
  with
  | Error _ as e -> e
  | Ok () ->
      Result.map_error
        (fun e -> "reference checker divergence: " ^ e)
        (Refcheck.covers r.Request.topo r.Request.coll o.Synth.schedules)

(* The same checks, step by step, each inside its own span: lower → emit
   → parse back → re-emit byte-identically → replay, then refcheck. *)
let lower_check_traced (r : Request.t) (o : Synth.outcome) =
  let phases = Collective.phases r.Request.coll in
  let rec go i = function
    | [] -> Ok ()
    | (phase, sched) :: rest -> (
        let prog, _ =
          layer "lower.lower_s" "msccl.lower" (fun () ->
              Msccl.lower ~channels:1 ~coll:phase sched)
        in
        let xml, _ = layer "lower.emit_s" "msccl.emit" (fun () -> Msccl.emit prog) in
        add "lower.steps" (float (Msccl.num_steps prog));
        add "lower.xml_bytes" (float (String.length xml));
        match layer "lower.parse_s" "msccl.of_xml" (fun () -> Msccl.of_xml xml) with
        | Error e, _ ->
            Error (Printf.sprintf "phase %d: emitted XML does not parse back: %s" i e)
        | Ok prog', _ ->
            let xml', _ =
              layer "lower.emit_s" "msccl.emit" (fun () -> Msccl.emit prog')
            in
            if not (String.equal xml xml') then
              Error (Printf.sprintf "phase %d: XML re-emission differs" i)
            else (
              match
                layer "lower.replay_s" "msccl_interp.replay" (fun () ->
                    Msccl_interp.replay sched prog')
              with
              | Error e, _ -> Error (Printf.sprintf "phase %d: %s" i e)
              | Ok (), _ -> go (i + 1) rest))
  in
  if List.length phases <> List.length o.Synth.schedules then
    Error "phase/schedule count mismatch"
  else
    match go 0 (List.combine phases o.Synth.schedules) with
    | Error _ as e -> e
    | Ok () ->
        Result.map_error
          (fun e -> "reference checker divergence: " ^ e)
          (fst
             (layer "lower.refcheck_s" "refcheck.covers" (fun () ->
                  Refcheck.covers r.Request.topo r.Request.coll
                    o.Synth.schedules)))

(* ------------------------------------------------------------ serving *)

type row = {
  spec : spec;
  latency : float;  (** Serve.run wall time, seconds *)
  norm : float;  (** Serve.run time in reference seconds *)
  wall_deadline : float option;  (** the deadline the request got *)
  via : string option;  (** registry via name, [None] = synthesized *)
  rung : Synth.level;
  busbw : float;
  failure : string option;
  digest : string;
  start : float;  (** Trace.now at request start *)
  stop : float;
}

let digest (o : Synth.outcome) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun s ->
               Digest.to_hex (Digest.string (Json.to_string (Schedule.to_json s))))
             o.Synth.schedules
          @ [ o.Synth.chosen ])))

(* Re-run, on the served outcome, the layer calls Serve.run made inside
   (validation, simulation, entry load, store), each in a bench span. *)
let replay_layers ~registry ~store_into (r : Request.t) (so : Serve.outcome) =
  let o = so.Serve.synth in
  let topo = r.Request.topo and blocks = r.Request.config.Synth.blocks in
  ignore
    (layer "validate.s" "validate.validate" (fun () ->
         Validate.validate topo r.Request.coll o.Synth.schedules));
  add "validate.xfers"
    (float (List.fold_left (fun a s -> a + Schedule.num_xfers s) 0 o.Synth.schedules));
  let events, _ =
    layer "sim.s" "sim.run" (fun () ->
        List.fold_left
          (fun a s -> a + (Sim.run ~blocks topo s).Sim.events)
          0 o.Synth.schedules)
  in
  add "sim.events" (float events);
  match so.Serve.source with
  | Serve.From_registry { hit_key; _ } -> (
      match
        layer "registry.load_s" "registry.load" (fun () ->
            Registry.load registry hit_key)
      with
      | Ok (meta, _), _ -> add "registry.bytes_read" (float meta.Registry.m_bytes)
      | Error _, _ -> ())
  | Serve.From_synthesis ->
      (* Serve stores full-rung results (no request here is fast-only) *)
      if o.Synth.degraded = Synth.Full then
        ignore
          (layer "registry.store_s" "registry.store" (fun () ->
               Registry.store store_into topo r.Request.coll ~blocks
                 ~cost:o.Synth.time ~chosen:o.Synth.chosen o.Synth.schedules))

type ctx = {
  traced : bool;
  scratch : Registry.t;  (** where traced runs time Registry.store *)
}

let serve_one ctx ~registry ~reset (s : spec) =
  let r = request_of s in
  if reset then Synth.reset_caches ();
  let blocks = r.Request.config.Synth.blocks in
  if ctx.traced then begin
    (* the probe Serve.run is about to make, on the same registry state *)
    match
      layer "registry.probe_s" "registry.probe" (fun () ->
          Registry.probe registry ~blocks r.Request.topo r.Request.coll)
    with
    | Registry.Hit { Registry.via = Registry.Transported | Registry.Scaled_cross; _ }, dt
    | Registry.Miss Registry.Transport_rejected, dt ->
        add "registry.nearmiss_s" dt
    | _ -> ()
  end;
  let lower =
    if not s.lower then None
    else Some (if ctx.traced then lower_check_traced else lower_check)
  in
  let audit = Audit.for_registry registry in
  let c0 = if ctx.traced then read_counters () else [] in
  let deadline = Option.map (fun d -> (d, wall_deadline d)) s.deadline in
  let r =
    {
      r with
      Request.config = { r.Request.config with deadline = Option.map snd deadline };
    }
  in
  let start = Trace.now () in
  let result, latency, norm =
    timed ?deadline (fun () ->
        match
          Trace.with_span ~cat:"bench" "serve.run" ~args:[ ("request", s.name) ]
            (fun () -> Serve.run ~registry ~audit ?lower r)
        with
        | so -> Ok so
        | exception e -> Error (Printexc.to_string e))
  in
  let stop = Trace.now () in
  if ctx.traced then begin
    add "serve.run_s" latency;
    List.iter2 (fun (n, v0) (_, v1) -> add n (v1 -. v0)) c0 (read_counters ())
  end;
  match result with
  | Error e ->
      { spec = s; latency; norm; wall_deadline = Option.map snd deadline;
        via = None; rung = Synth.Fallback; busbw = nan;
        failure = Some ("Serve.run raised: " ^ e); digest = ""; start; stop }
  | Ok so ->
      let o = so.Serve.synth in
      let failure =
        match so.Serve.lower with
        | Some (Error e) -> Some ("lowering check: " ^ e)
        | _ -> (
            match Refcheck.covers r.Request.topo r.Request.coll o.Synth.schedules with
            | Error e -> Some ("refcheck: " ^ e)
            | Ok () ->
                if Float.is_finite o.Synth.busbw && o.Synth.busbw > 0.0 then None
                else Some (Printf.sprintf "busbw %g" o.Synth.busbw))
      in
      if ctx.traced then begin
        add "search.sketches" (float o.Synth.num_sketches);
        add "combine.combos" (float o.Synth.num_combos);
        replay_layers ~registry ~store_into:ctx.scratch r so
      end;
      {
        spec = s;
        latency;
        norm;
        wall_deadline = Option.map snd deadline;
        via =
          (match so.Serve.source with
          | Serve.From_registry { via; _ } -> Some (Registry.via_name via)
          | Serve.From_synthesis -> None);
        rung = o.Synth.degraded;
        busbw = o.Synth.busbw;
        failure;
        digest = digest o;
        start;
        stop;
      }

(* --------------------------------------------------------- workloads *)

type pass = {
  rows : row list;
  wall : float;  (** serving time of the timed phase, reference seconds *)
  raw_wall : float;  (** the same in wall seconds *)
  audits : string list;  (** audit trails the pass appended to *)
}

let serving_time rows = List.fold_left (fun a r -> a +. r.norm) 0.0 rows
let raw_serving_time rows = List.fold_left (fun a r -> a +. r.latency) 0.0 rows

(* Each request into its own fresh registry, with cold caches and, as in
   a fresh process, no garbage left by the request before it. *)
let fresh_pass ctx ~dir specs =
  let rows, audits =
    List.split
      (List.mapi
         (fun i s ->
           let reg = Registry.open_dir (Filename.concat dir (string_of_int i)) in
           Gc.full_major ();
           let row = serve_one ctx ~registry:reg ~reset:true s in
           (row, Filename.concat (Registry.dir reg) Audit.default_name))
         specs)
  in
  { rows; wall = serving_time rows; raw_wall = raw_serving_time rows; audits }

(* Repeat [one k] (pass k) until [seconds] have passed and at least
   [min_passes] ran; [wall] is the median pass's serving time. *)
let repeat ~seconds ~min_passes one =
  let t0 = Clock.now () in
  let rec go k acc =
    if k >= min_passes && Clock.now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (one k :: acc)
  in
  let passes = go 0 [] in
  {
    rows = List.concat_map (fun p -> p.rows) passes;
    wall = median (List.map (fun p -> p.wall) passes);
    raw_wall = median (List.map (fun p -> p.raw_wall) passes);
    audits = List.sort_uniq compare (List.concat_map (fun p -> p.audits) passes);
  }

(* ------------------------------------------------------ trace analysis *)

let span_metrics (rows : row list) =
  let evs =
    List.filter
      (fun (e : Trace.event) -> e.Trace.pid = Trace.synthesis_pid && e.Trace.dur >= 0.0)
      (Trace.events ())
  in
  let named n = List.filter (fun (e : Trace.event) -> e.Trace.name = n) evs in
  let stop (e : Trace.event) = e.Trace.ts +. e.Trace.dur in
  let inside (a : Trace.event) (b : Trace.event) =
    a != b && a.Trace.tid = b.Trace.tid && a.Trace.ts >= b.Trace.ts
    && stop a <= stop b
  in
  (* spans of [n] not nested in another span of [n] *)
  let outermost n =
    let es = named n in
    List.filter (fun e -> not (List.exists (inside e) es)) es
  in
  let total es = List.fold_left (fun a (e : Trace.event) -> a +. e.Trace.dur) 0.0 es in
  let synth = outermost "synthesize" in
  let search = outermost "synth.search" in
  let combine = outermost "synth.combine" in
  let solves = outermost "synth.solve1" @ outermost "synth.solve2" in
  let subsolve = outermost "subsolver.solve_demand" in
  let sub_in_solve =
    List.filter (fun e -> List.exists (inside e) solves) subsolve
  in
  let milp = outermost "milp.solve" in
  let select_self = total solves -. total sub_in_solve in
  (* Span time past each deadlined request's start + deadline. *)
  let late es =
    List.fold_left
      (fun a (r : row) ->
        match r.wall_deadline with
        | None -> a
        | Some d ->
            let dl = r.start +. d in
            List.fold_left
              (fun a (e : Trace.event) ->
                if e.Trace.ts >= r.start && stop e <= r.stop then
                  a +. Float.max 0.0 (stop e -. Float.max e.Trace.ts dl)
                else a)
              a es)
      0.0 rows
  in
  [
    ("synthesize.s", "s", total synth);
    ("search.s", "s", total search);
    ("combine.s", "s", total combine);
    ("subsolve.s", "s", total subsolve);
    ("subsolve.calls", "count", float (List.length subsolve));
    ("milp.s", "s", total milp);
    ("select.self_s", "s", select_self);
    ( "synth.unattributed_s", "s",
      total synth -. total search -. total combine -. total solves );
    ("late.search_s", "s", late search);
    ("late.select_s", "s", late solves -. late sub_in_solve);
    ("late.subsolve_s", "s", late subsolve);
  ]

(* ------------------------------------------------------------ report *)

(* The commit HEAD names: a loose ref, else a line of packed-refs; a .git
   file (worktree, submodule) points at the real git directory. *)
let git_commit () =
  let read p = String.trim (In_channel.with_open_bin p In_channel.input_all) in
  let strip prefix s =
    if String.starts_with ~prefix s then
      Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
    else None
  in
  let read_opt p = try Some (read p) with Sys_error _ -> None in
  let packed dir ref =
    Option.bind (read_opt (Filename.concat dir "packed-refs")) (fun data ->
        String.split_on_char '\n' data
        |> List.find_map (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | [ sha; r ] when r = ref -> Some sha
               | _ -> None))
  in
  let gitdir =
    if Sys.file_exists ".git" && Sys.is_directory ".git" then Some ".git"
    else Option.bind (read_opt ".git") (strip "gitdir: ")
  in
  let commit =
    Option.bind gitdir (fun gitdir ->
        Option.bind (read_opt (Filename.concat gitdir "HEAD")) (fun head ->
            match strip "ref: " head with
            | None -> Some head
            | Some ref ->
                (* a worktree keeps shared refs in the common directory *)
                let common =
                  match read_opt (Filename.concat gitdir "commondir") with
                  | Some c -> Filename.concat gitdir c
                  | None -> gitdir
                in
                List.find_map Fun.id
                  [
                    read_opt (Filename.concat gitdir ref);
                    read_opt (Filename.concat common ref);
                    packed common ref;
                  ]))
  in
  Option.value ~default:"unknown" commit

(* Identity of the code being measured: the digest of this executable,
   which links the whole library.  Cold digests and untraced baselines are
   only compared within one binary. *)
let binary_id =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ -> "unknown")

let heap_peak_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let json_metric (name, unit, v) =
  let v = if Float.is_finite v then Json.Num v else Json.Null in
  (name, Json.Obj [ ("value", v); ("unit", Json.Str unit) ])

let row_json (r : row) =
  Json.Obj
    [
      ("request", Json.Str r.spec.name);
      ("latency_s", Json.Num r.latency);
      ("reference_s", Json.Num r.norm);
      ("source", Json.Str (Option.value ~default:"synthesis" r.via));
      ("rung", Json.Str (Synth.level_name r.rung));
      ("busbw_gbps", Json.Num (if Float.is_finite r.busbw then r.busbw else 0.0));
      ("digest", Json.Str r.digest);
      ("failure", match r.failure with None -> Json.Null | Some e -> Json.Str e);
    ]

(* Median of latency / deadline over deadlined requests, in reference
   seconds (0 without any). *)
let overrun_p50 rows =
  match
    List.filter_map
      (fun r -> Option.map (fun d -> r.norm /. d) r.spec.deadline)
      rows
  with
  | [] -> 0.0
  | xs -> median xs

(* Cold schedules must be byte-identical run to run: the first cold run of
   a binary records its digests, later runs of the same binary compare
   against them.  Another binary (a code change) starts its own file. *)
let check_cold_digests (rows : row list) =
  let path =
    Filename.concat out_dir
      (Printf.sprintf "cold-digests-%s.json" (Lazy.force binary_id))
  in
  let mine = List.map (fun r -> (r.spec.name, Json.Str r.digest)) rows in
  if Lazy.force binary_id = "unknown" then []
  else if Sys.file_exists path then
    let prev = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
    List.filter_map
      (fun (name, d) ->
        match Json.member name prev with
        | Json.Str p when Json.Str p <> d ->
            Some (Printf.sprintf "cold digest of %s differs from %s" name path)
        | _ -> None
        | exception _ -> None)
      mine
  else begin
    write_file path (Json.to_string ~pretty:true (Json.Obj mine));
    []
  end

(* The untraced wall_s of an earlier correct run of this workload and seed
   by the same binary, if its report is in the checkout. *)
let previous_untraced_wall workload seed =
  let file =
    Filename.concat out_dir
      (Printf.sprintf "report-%s-seed%d-trace0.json" workload seed)
  in
  try
    let j = Json.of_string (In_channel.with_open_bin file In_channel.input_all) in
    if
      Json.member "correct" j = Json.Bool true
      && Json.member "binary" j = Json.Str (Lazy.force binary_id)
      && Lazy.force binary_id <> "unknown"
    then
      Some
        ( Json.to_float
            (Json.member "value" (Json.member "wall_s" (Json.member "end_to_end" j))),
          file )
    else None
  with _ -> None

(* -------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cold|hit|deadline");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload cold|hit|deadline --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "cold"; "hit"; "deadline" ]) then
    die "unknown workload %S (cold, hit, deadline)" !workload;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        die "refusing to run with %s set: it changes what is measured" v)
    [ "SYCCL_FAULTS"; "SYCCL_FAULT_SEED"; "SYCCL_DEBUG" ];
  if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then
    die "run from the repository root";
  let traced = !trace = 1 in
  Trace.disable ();
  start_calib_ticks ();
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf run_dir;
  mkdir_p run_dir;
  at_exit (fun () -> rm_rf run_dir);
  let dir name = Filename.concat run_dir name in
  let plain = { traced = false; scratch = Registry.open_dir (dir "scratch") } in
  (* ---- set-up *)
  (* A set-up resolves the topologies it needs, then serves requests; it
     is timed as the two pieces, each in reference seconds. *)
  let setup_times = ref [] and raw_setup_times = ref [] in
  let timed_setup specs serve =
    (* garbage left by the previous repetition is not this one's cost *)
    Gc.full_major ();
    Hashtbl.reset topos;
    let (), wall, norm =
      timed (fun () -> List.iter (fun s -> ignore (request_of s)) specs)
    in
    let rows = serve () in
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
    setup_times := (norm +. sum (fun r -> r.norm)) :: !setup_times;
    raw_setup_times := (wall +. sum (fun r -> r.latency)) :: !raw_setup_times;
    rows
  in
  (* cold and deadline set-up takes a fraction of a second; it is repeated
     and the median reported *)
  let setup_reps = 15 in
  let grid_setup specs i =
    timed_setup specs (fun () ->
        (* one small request end to end, so pool and code paths are live *)
        [
          serve_one plain
            ~registry:(Registry.open_dir (dir (Printf.sprintf "preflight%d" i)))
            ~reset:true
            (spec "a100-16" "allgather" (64.0 *. kib));
        ])
  in
  let warm = dir "warm" in
  let setup_rows =
    match !workload with
    | "hit" ->
        timed_setup hit_anchors (fun () ->
            let reg = Registry.open_dir warm in
            List.map
              (fun a ->
                Gc.full_major ();
                serve_one plain ~registry:reg ~reset:true a)
              hit_anchors)
    | "cold" -> List.concat (List.init setup_reps (grid_setup cold_grid))
    | _ -> List.concat (List.init setup_reps (grid_setup deadline_grid))
  in
  (* ---- timed phase *)
  (* Every workload repeats its pass until --seconds have passed: cold at
     least once, hit and deadline at least three times (hit needs >= 200
     latency samples for its p95; deadline results depend on timing, so
     they are averaged over passes).  The seed orders each pass and, on
     hit, draws the requests. *)
  let pass ctx tag =
    let rng = Random.State.make [| !seed |] in
    let seconds = !seconds in
    match !workload with
    | "hit" ->
        repeat ~seconds ~min_passes:3 (fun k ->
            (* every round starts from the warmed registry: what one round
               synthesizes and stores is gone in the next, so every round
               serves the same kind of stream whatever the run length; the
               audit trail belongs to set-up, not to the round *)
            let reg = dir (Printf.sprintf "hit-%s-%d" tag k) in
            copy_tree warm reg;
            rm_rf (Filename.concat reg Audit.default_name);
            let registry = Registry.open_dir reg in
            Gc.full_major ();
            let rows =
              List.map (serve_one ctx ~registry ~reset:false) (hit_round rng)
            in
            { rows; wall = serving_time rows; raw_wall = raw_serving_time rows;
              audits = [ Filename.concat reg Audit.default_name ] })
    | "cold" ->
        repeat ~seconds ~min_passes:1 (fun k ->
            fresh_pass ctx
              ~dir:(dir (Printf.sprintf "cold-%s-%d" tag k))
              (shuffled rng cold_grid))
    | _ ->
        repeat ~seconds ~min_passes:3 (fun k ->
            fresh_pass ctx
              ~dir:(dir (Printf.sprintf "deadline-%s-%d" tag k))
              (shuffled rng deadline_grid))
  in
  (* A traced run compares its wall time against the untraced run of this
     workload and seed by the same binary, if the checkout has one; else
     it runs the untraced pass itself first. *)
  let baseline = if traced then previous_untraced_wall !workload !seed else None in
  let plain_pass =
    if traced && baseline <> None then None
    else begin
      (* set-up garbage must not be collected on the clock *)
      Gc.compact ();
      Some (pass plain "plain")
    end
  in
  let tp =
    if traced then begin
      Hashtbl.reset acc;
      Gc.compact ();
      Trace.enable ~capacity:(1 lsl 20) ();
      let tp = pass { plain with traced = true } "traced" in
      (* Audit.append on the pass's own records, into a scratch sink *)
      let sink = Audit.open_file (dir "audit-replay.jsonl") in
      List.iter
        (fun path ->
          add "audit.bytes" (float (file_size path));
          List.iter
            (fun r ->
              ignore
                (layer "audit.append_s" "audit.append" (fun () ->
                     Audit.append sink r)))
            (fst (Audit.read path)))
        tp.audits;
      Trace.disable ();
      Some tp
    end
    else None
  in
  let heap_mb = heap_peak_mb () in
  let p = match plain_pass with Some p -> p | None -> Option.get tp in
  let untraced_wall, overhead_baseline =
    match (plain_pass, baseline) with
    | Some p, _ -> (p.wall, "in-run untraced pass")
    | None, Some (w, file) -> (w, file)
    | None, None -> assert false
  in
  (* ---- checks *)
  let failures =
    List.filter_map
      (fun r -> Option.map (fun e -> r.spec.name ^ ": " ^ e) r.failure)
      (setup_rows
      @ Option.fold ~none:[] ~some:(fun p -> p.rows) plain_pass
      @ Option.fold ~none:[] ~some:(fun t -> t.rows) tp)
  in
  let digest_failures =
    match !workload with
    | "cold" ->
        (* schedules must not depend on the pass, the request order or
           tracing *)
        let seen = Hashtbl.create 32 in
        List.filter_map
          (fun r ->
            match Hashtbl.find_opt seen r.spec.name with
            | Some d when d <> r.digest ->
                Some ("cold digest of " ^ r.spec.name ^ " differs between passes")
            | Some _ -> None
            | None ->
                Hashtbl.replace seen r.spec.name r.digest;
                None)
          (Option.fold ~none:[] ~some:(fun p -> p.rows) plain_pass
          @ Option.fold ~none:[] ~some:(fun t -> t.rows) tp)
        @ check_cold_digests p.rows
    | _ -> []
  in
  let attempted =
    List.length setup_rows
    + Option.fold ~none:0 ~some:(fun p -> List.length p.rows) plain_pass
    + Option.fold ~none:0 ~some:(fun t -> List.length t.rows) tp
  in
  let failed = List.length failures in
  let correct = failures = [] && digest_failures = [] in
  List.iter (fun e -> prerr_endline ("perfbench: FAIL " ^ e)) (failures @ digest_failures);
  (* ---- end-to-end metrics (untraced pass) *)
  let rows = p.rows in
  let n = List.length rows in
  let ms = List.map (fun r -> r.norm *. 1e3) rows in
  let synth_rows =
    List.filter (fun r -> r.via = None) (if !workload = "hit" then setup_rows else rows)
  in
  (* over every served sample: deadlined quality flips between passes with
     where the budget ran out, so it is averaged, not voted on *)
  let busbw =
    List.filter_map (fun r -> if r.failure = None then Some r.busbw else None) rows
  in
  let count f = List.length (List.filter f rows) in
  let e2e =
    [
      ("setup_s", "s", median !setup_times);
      ("wall_s", "s", p.wall);
      ("synth_geomean_s", "s", geomean (List.map (fun r -> r.norm) synth_rows));
      ("req_p50_ms", "ms", hd_quantile 0.5 ms);
      ("req_p95_ms", "ms", hd_quantile 0.95 ms);
      ("busbw_geomean_gbps", "GB/s", geomean busbw);
      ("heap_peak_mb", "MB", heap_mb);
    ]
  in
  let info =
    [
      ("fail_ratio", "ratio", ratio failed attempted);
      ("hit_ratio", "ratio", ratio (count (fun r -> r.via <> None)) n);
      ("degraded_ratio", "ratio", ratio (count (fun r -> r.rung <> Synth.Full)) n);
      ("overrun_p50", "ratio", overrun_p50 rows);
      ("requests", "count", float n);
      ("host_speed", "ratio", host_speed ());
      ("raw.setup_s", "s", median !raw_setup_times);
      ("raw.wall_s", "s", p.raw_wall);
      ( "raw.req_p50_ms", "ms",
        hd_quantile 0.5 (List.map (fun r -> r.latency *. 1e3) rows) );
    ]
  in
  (* ---- per-layer metrics (traced pass) *)
  let per_layer, trace_file =
    match tp with
    | None -> ([], None)
    | Some t ->
        let trace_file =
          Filename.concat out_dir
            (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
        in
        Trace.export_file trace_file;
        let spans = span_metrics t.rows in
        let span n = List.fold_left (fun a (m, _, v) -> if m = n then v else a) 0.0 spans in
        let tn = List.length t.rows in
        let tcount f = List.length (List.filter f t.rows) in
        let accepted = get "registry.hit.transported" +. get "registry.hit.scaled_cross" in
        let per_req_layers =
          get "registry.probe_s" +. get "registry.store_s" +. get "audit.append_s"
          +. get "lower.lower_s" +. get "lower.emit_s" +. get "lower.parse_s"
          +. get "lower.replay_s" +. get "lower.refcheck_s"
        in
        let late_total =
          List.fold_left
            (fun a r ->
              match r.wall_deadline with
              | Some d -> a +. Float.max 0.0 (r.latency -. d)
              | None -> a)
            0.0 t.rows
        in
        let c name = (name, "count", get name) in
        let s name = (name, "s", get name) in
        ( spans
          @ [
              c "search.sketches";
              c "combine.combos";
              ( "subsolve.cache_hit_ratio", "ratio",
                let h = get "cache.subsolve.hits" and m = get "cache.subsolve.misses" in
                if h +. m = 0.0 then 0.0 else h /. (h +. m) );
              c "subsolve.budget_skips";
              c "milp.solves";
              c "milp.nodes";
              ( "milp.certified_ratio", "ratio",
                let sv = get "milp.solves" in
                if sv = 0.0 then 0.0 else get "milp.flow_certified" /. sv );
              c "lp.pivots";
              s "sim.s";
              c "sim.events";
              ( "sim.events_per_s", "1/s",
                if get "sim.s" = 0.0 then 0.0 else get "sim.events" /. get "sim.s" );
              s "validate.s";
              c "validate.xfers";
              s "registry.probe_s";
              s "registry.load_s";
              ("registry.bytes_read", "B", get "registry.bytes_read");
              s "registry.nearmiss_s";
              ( "registry.transport_accept_ratio", "ratio",
                let rej = get "registry.miss.transport_rejected" in
                if accepted +. rej = 0.0 then 0.0 else accepted /. (accepted +. rej) );
              s "registry.store_s";
              s "lower.lower_s";
              s "lower.emit_s";
              s "lower.parse_s";
              s "lower.replay_s";
              s "lower.refcheck_s";
              c "lower.steps";
              ("lower.xml_bytes", "B", get "lower.xml_bytes");
              s "audit.append_s";
              ("audit.bytes", "B", get "audit.bytes");
              ( "serve.unattributed_s", "s",
                get "serve.run_s" -. span "synthesize.s" -. per_req_layers );
              ("late.total_s", "s", late_total);
              ("rung.fast", "count", float (tcount (fun r -> r.rung = Synth.Fast)));
              ("rung.fallback", "count", float (tcount (fun r -> r.rung = Synth.Fallback)));
              ("hit_ratio", "ratio", ratio (tcount (fun r -> r.via <> None)) tn);
              ("degraded_ratio", "ratio", ratio (tcount (fun r -> r.rung <> Synth.Full)) tn);
              ("overrun_p50", "ratio", overrun_p50 t.rows);
              ("trace.overhead_s", "s", t.wall -. untraced_wall);
              ("trace.dropped", "count", float (Trace.dropped ()));
            ],
          Some trace_file )
  in
  (* ---- output *)
  let show (name, unit, v) = Printf.printf "%-34s %14.6g %s\n" name v unit in
  Printf.printf
    "perfbench %s seed=%d seconds=%g trace=%d cores=%d ocaml=%s commit=%s binary=%s\n"
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_commit ()) (Lazy.force binary_id);
  Printf.printf "requests %d, attempted %d, failed %d, correct %b\n" n attempted
    failed correct;
  List.iter show (e2e @ info @ per_layer);
  Option.iter (Printf.printf "trace file: %s (load in ui.perfetto.dev)\n") trace_file;
  let report =
    Json.Obj
      [
        ("workload", Json.Str !workload);
        ("seed", Json.Num (float !seed));
        ("seconds", Json.Num !seconds);
        ("trace", Json.Num (float !trace));
        ("cores", Json.Num (float (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("commit", Json.Str (git_commit ()));
        ("binary", Json.Str (Lazy.force binary_id));
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float attempted));
        ("failed", Json.Num (float failed));
        ("failures", Json.List (List.map (fun e -> Json.Str e) (failures @ digest_failures)));
        ("end_to_end", Json.Obj (List.map json_metric (e2e @ info)));
        ("per_layer", Json.Obj (List.map json_metric per_layer));
        ("overhead_baseline", Json.Str overhead_baseline);
        ("setup_requests", Json.List (List.map row_json setup_rows));
        ("requests", Json.List (List.map row_json rows));
      ]
  in
  write_file
    (Filename.concat out_dir
       (Printf.sprintf "report-%s-seed%d-trace%d.json" !workload !seed !trace))
    (Json.to_string ~pretty:true report);
  let metrics = if traced then per_layer else e2e in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float attempted));
            ("failed", Json.Num (float failed));
            ("metrics", Json.Obj (List.map json_metric metrics));
          ]));
  if not correct then exit 1
