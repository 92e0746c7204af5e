(* Observability layer tests: span tracing (ring buffers, nesting, Chrome
   trace export), histogram metrics, simulator timeline export, and the
   Counters reset/quiescence contract.

   Runs in its own executable so trace enable/disable and Counters.reset
   cannot interfere with the main suite. *)

module Trace = Syccl_util.Trace
module Counters = Syccl_util.Counters
module Json = Syccl_util.Json
module Stats = Syccl_util.Stats
module Pool = Syccl_util.Pool
module Xrand = Syccl_util.Xrand
module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module C = Syccl_collective.Collective
module Sim = Syccl_sim.Sim
module Schedule = Syccl_sim.Schedule

let check = Alcotest.check

(* Pool width under test; mirrors test_pool.ml so CI can sweep widths. *)
let test_domains =
  match Sys.getenv_opt "SYCCL_TEST_DOMAINS" with
  | Some s -> max 1 (int_of_string (String.trim s))
  | None -> 2

(* --- Chrome trace export round-trips through the JSON parser --------- *)

let obj_field name = function
  | Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let trace_events_of_string text =
  match Json.of_string text with
  | Json.Obj kvs -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json.List l) -> l
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "trace is not a JSON object"

let test_export_round_trip () =
  Trace.enable ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span ~args:[ ("k", "v\"with\nescapes") ] "inner" ignore;
      Trace.instant "tick");
  Trace.disable ();
  let evs = trace_events_of_string (Trace.to_chrome_string ()) in
  Alcotest.(check bool) "events present" true (List.length evs >= 3);
  List.iter
    (fun e ->
      match obj_field "ph" e with
      | Some (Json.Str "X") ->
          Alcotest.(check bool) "X has name/ts/dur" true
            (obj_field "name" e <> None && obj_field "ts" e <> None
           && obj_field "dur" e <> None)
      | Some (Json.Str "i") ->
          Alcotest.(check bool) "i has ts" true (obj_field "ts" e <> None)
      | Some (Json.Str "M") -> ()
      | _ -> Alcotest.fail "unknown event phase")
    evs;
  let name_of e =
    match obj_field "name" e with Some (Json.Str s) -> s | _ -> ""
  in
  let names = List.map name_of evs in
  Alcotest.(check bool) "span names exported" true
    (List.mem "outer" names && List.mem "inner" names && List.mem "tick" names);
  (* JSONL: every line is its own JSON object. *)
  Trace.to_jsonl ()
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         if String.trim line <> "" then ignore (Json.of_string line))

(* --- Spans are balanced and properly nested under the pool ------------ *)

let test_spans_nested_under_pool () =
  let pool = Pool.get test_domains in
  Trace.enable ();
  let futures =
    List.init 16 (fun i ->
        Pool.submit pool (fun () ->
            Trace.with_span "task.outer" (fun () ->
                Trace.with_span "task.mid" (fun () ->
                    Trace.with_span "task.leaf" (fun () -> i * i)))))
  in
  let total = List.fold_left (fun acc f -> acc + Pool.await f) 0 futures in
  Trace.disable ();
  check Alcotest.int "work done" 1240 total;
  let spans =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.dur >= 0.0 && e.Trace.pid = Trace.synthesis_pid)
      (Trace.events ())
  in
  (* pool.task wraps each submitted closure, so every depth is recorded. *)
  let count name =
    List.length (List.filter (fun (e : Trace.event) -> e.Trace.name = name) spans)
  in
  check Alcotest.int "outer spans" 16 (count "task.outer");
  check Alcotest.int "mid spans" 16 (count "task.mid");
  check Alcotest.int "leaf spans" 16 (count "task.leaf");
  (* On any one track (= domain), span intervals never partially overlap:
     for two spans either one contains the other or they are disjoint. *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace by_tid e.Trace.tid
        (e :: Option.value (Hashtbl.find_opt by_tid e.Trace.tid) ~default:[]))
    spans;
  let eps = 1e-9 in
  Hashtbl.iter
    (fun _tid es ->
      let a = Array.of_list es in
      Array.iter
        (fun (x : Trace.event) ->
          Array.iter
            (fun (y : Trace.event) ->
              let x0 = x.Trace.ts and x1 = x.Trace.ts +. x.Trace.dur in
              let y0 = y.Trace.ts and y1 = y.Trace.ts +. y.Trace.dur in
              let disjoint = x1 <= y0 +. eps || y1 <= x0 +. eps in
              let x_in_y = x0 >= y0 -. eps && x1 <= y1 +. eps in
              let y_in_x = y0 >= x0 -. eps && y1 <= x1 +. eps in
              Alcotest.(check bool) "nested or disjoint" true
                (disjoint || x_in_y || y_in_x))
            a)
        a)
    by_tid

let test_span_recorded_on_raise () =
  Trace.enable ();
  (try Trace.with_span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.disable ();
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
  Alcotest.(check bool) "span survives raise" true (List.mem "raiser" names)

(* --- Ring wrap-around drops oldest events and counts them ------------- *)

let test_ring_wrap_drops () =
  (* 16 is the smallest ring the library will allocate. *)
  Trace.enable ~capacity:16 ();
  (* A fresh domain gets a fresh ring at the current capacity (rings that
     already exist keep their size, so the main domain's ring is unsuitable
     here). *)
  let d =
    Domain.spawn (fun () ->
        for i = 0 to 39 do
          Trace.instant (Printf.sprintf "ev%d" i)
        done;
        (Domain.self () :> int))
  in
  let tid = Domain.join d in
  Trace.disable ();
  let mine =
    List.filter (fun (e : Trace.event) -> e.Trace.tid = tid) (Trace.events ())
  in
  check Alcotest.int "ring retains capacity" 16 (List.length mine);
  check Alcotest.int "dropped counted" 24 (Trace.dropped ());
  (* The retained events are the newest ones. *)
  Alcotest.(check bool) "newest retained" true
    (List.exists (fun (e : Trace.event) -> e.Trace.name = "ev39") mine);
  Alcotest.(check bool) "oldest dropped" true
    (not (List.exists (fun (e : Trace.event) -> e.Trace.name = "ev0") mine));
  (* Restore the default ring size for domains spawned by later tests. *)
  Trace.enable ~capacity:65536 ();
  Trace.disable ();
  check Alcotest.int "enable clears dropped" 0 (Trace.dropped ())

let test_disabled_records_nothing () =
  Trace.enable ();
  Trace.disable ();
  Trace.clear ();
  Trace.with_span "invisible" ignore;
  Trace.instant "also invisible";
  check Alcotest.int "no events when disabled" 0 (List.length (Trace.events ()))

(* --- Histogram percentiles agree with Stats.percentile ---------------- *)

let test_hist_percentiles_match_stats () =
  let rng = Xrand.create 42 in
  (* Mix of magnitudes: exercises many buckets. *)
  let samples =
    List.init 500 (fun i ->
        let scale = 10.0 ** float_of_int (i mod 7 - 3) in
        (0.1 +. Xrand.float rng 1.0) *. scale)
  in
  let h = Counters.histogram "test.obs.latency" in
  let pool = Pool.get test_domains in
  (* Record from several pool tasks: the cells are domain-safe. *)
  let chunks = [ 0; 1; 2; 3; 4 ] in
  List.map
    (fun c ->
      Pool.submit pool (fun () ->
          List.iteri (fun i v -> if i mod 5 = c then Counters.record h v) samples))
    chunks
  |> List.iter Pool.await;
  check Alcotest.int "all samples recorded" 500 (Counters.hist_count h);
  List.iter
    (fun p ->
      let exact =
        match Stats.percentile_opt p samples with
        | Some v -> v
        | None -> Alcotest.fail "samples not empty"
      in
      let approx = Counters.hist_percentile h p in
      let rel = Float.abs (approx -. exact) /. exact in
      if p = 0.0 || p = 1.0 then
        check (Alcotest.float 1e-9) (Printf.sprintf "p=%.2f exact" p) exact approx
      else
        Alcotest.(check bool)
          (Printf.sprintf "p=%.2f within bucket resolution (rel %.3f)" p rel)
          true (rel <= 0.2))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  let st = Counters.hist_stats h in
  let lo, hi =
    match Stats.min_max_opt samples with
    | Some mm -> mm
    | None -> Alcotest.fail "samples not empty"
  in
  check (Alcotest.float 1e-9) "hmin exact" lo st.Counters.hmin;
  check (Alcotest.float 1e-9) "hmax exact" hi st.Counters.hmax;
  check Alcotest.int "stats n" 500 st.Counters.n

let test_hist_empty_and_snapshot () =
  let h = Counters.histogram "test.obs.empty" in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Counters.hist_percentile h 0.5));
  Alcotest.(check bool) "empty hist not in snapshot" true
    (not (List.mem_assoc "test.obs.empty" (Counters.hist_snapshot ())));
  Counters.observe "test.obs.one" 3.0;
  Alcotest.(check bool) "non-empty hist in snapshot" true
    (List.mem_assoc "test.obs.one" (Counters.hist_snapshot ()));
  let st = List.assoc "test.obs.one" (Counters.hist_snapshot ()) in
  check Alcotest.int "n=1" 1 st.Counters.n;
  check (Alcotest.float 1e-9) "p50 of singleton" 3.0 st.Counters.p50

(* --- Prometheus text exposition parses and is internally consistent ---- *)

(* A small test-side parser for the Prometheus text format (0.0.4):
   comment lines are # HELP / # TYPE declarations, sample lines are
   NAME{LABELS} VALUE or NAME VALUE.  The test validates the grammar and
   the histogram invariants (cumulative non-decreasing buckets ending in a
   +Inf bucket equal to _count), so a renderer regression breaks here and
   not on a live scrape. *)

type prom_sample = { ps_name : string; ps_le : string option; ps_value : float }

let prom_name_ok name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let parse_prometheus text =
  let types = ref [] and samples = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line >= 2 && String.sub line 0 2 = "# " then begin
           match String.split_on_char ' ' line with
           | "#" :: "TYPE" :: name :: [ ty ] ->
               Alcotest.(check bool)
                 (Printf.sprintf "TYPE %s is a known kind" name)
                 true
                 (List.mem ty [ "counter"; "gauge"; "histogram" ]);
               types := (name, ty) :: !types
           | "#" :: "HELP" :: name :: _ ->
               Alcotest.(check bool)
                 (Printf.sprintf "HELP name %s valid" name)
                 true (prom_name_ok name)
           | _ -> Alcotest.fail (Printf.sprintf "bad comment line: %s" line)
         end
         else begin
           (* NAME{le="..."} VALUE or NAME VALUE *)
           let name_end =
             match (String.index_opt line '{', String.index_opt line ' ') with
             | Some b, Some sp when b < sp -> b
             | _, Some sp -> sp
             | _ -> Alcotest.fail (Printf.sprintf "bad sample line: %s" line)
           in
           let name = String.sub line 0 name_end in
           Alcotest.(check bool)
             (Printf.sprintf "sample name %s valid" name)
             true (prom_name_ok name);
           let le =
             match String.index_opt line '{' with
             | None -> None
             | Some b ->
                 let e =
                   match String.index_opt line '}' with
                   | Some e when e > b -> e
                   | _ -> Alcotest.fail "unterminated label set"
                 in
                 let lab = String.sub line (b + 1) (e - b - 1) in
                 let prefix = "le=\"" in
                 Alcotest.(check bool) "only le labels emitted" true
                   (String.length lab > String.length prefix + 1
                   && String.sub lab 0 (String.length prefix) = prefix
                   && lab.[String.length lab - 1] = '"');
                 Some
                   (String.sub lab (String.length prefix)
                      (String.length lab - String.length prefix - 1))
           in
           let value =
             match String.rindex_opt line ' ' with
             | Some sp ->
                 let v = String.sub line (sp + 1) (String.length line - sp - 1) in
                 if v = "+Inf" then infinity else float_of_string v
             | None -> Alcotest.fail (Printf.sprintf "no value in: %s" line)
           in
           samples := { ps_name = name; ps_le = le; ps_value = value } :: !samples
         end);
  (List.rev !types, List.rev !samples)

let test_prometheus_format () =
  Counters.add "test.obs.prom_counter" 7;
  Counters.addf "test.obs.prom_gauge" 1.5;
  let values = [ 1e-6; 3e-6; 2e-4; 0.5; 0.5; 12.0 ] in
  List.iter (Counters.observe "test.obs.prom_hist") values;
  let types, samples = parse_prometheus (Counters.to_prometheus ()) in
  (* Every sample family is typed. *)
  let family name =
    (* strip _bucket/_sum/_count suffixes back to the declared family *)
    let strip suffix n =
      let ls = String.length suffix and ln = String.length n in
      if ln > ls && String.sub n (ln - ls) ls = suffix then
        Some (String.sub n 0 (ln - ls))
      else None
    in
    let cand =
      match strip "_bucket" name with
      | Some f -> Some f
      | None -> (
          match strip "_sum" name with
          | Some f -> Some f
          | None -> strip "_count" name)
    in
    match cand with
    | Some f when List.assoc_opt f types = Some "histogram" -> f
    | _ -> name
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "family of %s is typed" s.ps_name)
        true
        (List.mem_assoc (family s.ps_name) types))
    samples;
  (* The int counter and float gauge round-trip with the right type. *)
  let one name =
    match List.filter (fun s -> s.ps_name = name) samples with
    | [ s ] -> s.ps_value
    | l -> Alcotest.fail (Printf.sprintf "%d samples for %s" (List.length l) name)
  in
  Alcotest.(check bool) "counter sample" true
    (one "syccl_test_obs_prom_counter" >= 7.0);
  check (Alcotest.float 1e-9) "gauge sample" 1.5 (one "syccl_test_obs_prom_gauge");
  Alcotest.(check (option string)) "counter typed counter" (Some "counter")
    (List.assoc_opt "syccl_test_obs_prom_counter" types);
  Alcotest.(check (option string)) "gauge typed gauge" (Some "gauge")
    (List.assoc_opt "syccl_test_obs_prom_gauge" types);
  (* Histogram invariants: buckets cumulative and non-decreasing, le
     strictly increasing, +Inf bucket == _count, _sum matches. *)
  Alcotest.(check (option string)) "hist typed histogram" (Some "histogram")
    (List.assoc_opt "syccl_test_obs_prom_hist" types);
  let buckets =
    List.filter (fun s -> s.ps_name = "syccl_test_obs_prom_hist_bucket") samples
  in
  Alcotest.(check bool) "has buckets" true (List.length buckets >= 2);
  let les = List.map (fun s -> match s.ps_le with Some le -> le | None -> Alcotest.fail "bucket without le") buckets in
  let le_vals =
    List.map (fun le -> if le = "+Inf" then infinity else float_of_string le) les
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as tl) -> a < b && strictly_increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "le strictly increasing" true
    (strictly_increasing le_vals);
  let counts = List.map (fun s -> s.ps_value) buckets in
  let rec nondecreasing = function
    | a :: (b :: _ as tl) -> a <= b && nondecreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "buckets non-decreasing" true (nondecreasing counts);
  let last_le = List.nth le_vals (List.length le_vals - 1) in
  Alcotest.(check bool) "last bucket is +Inf" true (last_le = infinity);
  let count = one "syccl_test_obs_prom_hist_count" in
  let sum = one "syccl_test_obs_prom_hist_sum" in
  check (Alcotest.float 1e-9) "+Inf bucket equals count" count
    (List.nth counts (List.length counts - 1));
  check (Alcotest.float 1e-9) "count" (float_of_int (List.length values)) count;
  check (Alcotest.float 1e-6) "sum" (List.fold_left ( +. ) 0.0 values) sum

(* --- Simulator timeline: one track per active port -------------------- *)

let test_sim_trace_tracks () =
  let topo = Builders.h800_scaled ~servers:1 ~gpus_per_server:8 in
  let coll = C.make C.AllGather ~n:8 ~size:1.048576e6 in
  let sched = Syccl_baselines.Ring.allgather topo coll in
  (* Expected active ports, mirroring Sim's numbering: egress of the source
     and ingress of the destination, in the transfer dimension's port
     group. *)
  let npg =
    let m = ref 0 in
    for d = 0 to T.num_dims topo - 1 do
      m := max !m (T.dim topo d).T.port_group
    done;
    !m + 1
  in
  let expected = Hashtbl.create 32 in
  List.iter
    (fun (x : Schedule.xfer) ->
      let pg = (T.dim topo x.Schedule.dim).T.port_group in
      Hashtbl.replace expected (2 * ((x.Schedule.src * npg) + pg)) ();
      Hashtbl.replace expected ((2 * ((x.Schedule.dst * npg) + pg)) + 1) ())
    sched.Schedule.xfers;
  Trace.enable ();
  let report, _ = Sim.timeline ~pid:Trace.sim_pid topo sched in
  Trace.disable ();
  Alcotest.(check bool) "simulated" true (report.Sim.time > 0.0);
  let sim_spans =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.pid = Trace.sim_pid && e.Trace.cat = "sim" && e.Trace.dur >= 0.0)
      (Trace.events ())
  in
  let tracks = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) -> Hashtbl.replace tracks e.Trace.tid ())
    sim_spans;
  check Alcotest.int "one track per active port"
    (Hashtbl.length expected) (Hashtbl.length tracks);
  Hashtbl.iter
    (fun tid () ->
      Alcotest.(check bool) "track is an expected port" true
        (Hashtbl.mem expected tid))
    tracks;
  (* Spans on one port never overlap: ports serialize. *)
  let by_track = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace by_track e.Trace.tid
        (e :: Option.value (Hashtbl.find_opt by_track e.Trace.tid) ~default:[]))
    sim_spans;
  Hashtbl.iter
    (fun _tid es ->
      let a =
        List.sort (fun (x : Trace.event) y -> Float.compare x.Trace.ts y.Trace.ts) es
      in
      ignore
        (List.fold_left
           (fun prev_end (e : Trace.event) ->
             Alcotest.(check bool) "port serializes" true
               (e.Trace.ts >= prev_end -. 1e-12);
             e.Trace.ts +. e.Trace.dur)
           neg_infinity a))
    by_track;
  (* The timeline spans virtual time from 0 to the simulated makespan. *)
  let last =
    List.fold_left
      (fun acc (e : Trace.event) -> Float.max acc (e.Trace.ts +. e.Trace.dur))
      0.0 sim_spans
  in
  Alcotest.(check bool) "timeline reaches makespan" true
    (Float.abs (last -. report.Sim.time) <= 0.5 *. report.Sim.time)

(* A timeline pushed after synthesis into a nearly full ring must stop at
   the ring's free slots: the spans recorded before it survive, nothing is
   overwritten, and the cut events are counted (two per executed block). *)
let test_timeline_capped_at_free_slots () =
  let topo = Builders.h800_scaled ~servers:1 ~gpus_per_server:8 in
  let coll = C.make C.AllGather ~n:8 ~size:1.048576e6 in
  let sched = Syccl_baselines.Ring.allgather topo coll in
  let blocks = (Sim.run topo sched).Sim.events in
  Trace.enable ~capacity:64 ();
  (* A fresh domain gets a fresh ring at the current capacity. *)
  let cut =
    Domain.join
      (Domain.spawn (fun () ->
           for i = 0 to 9 do
             Trace.with_span (Printf.sprintf "synth.%d" i) ignore
           done;
           snd
             (Sim.timeline ~pid:Trace.sim_pid ~limit:(Trace.free_slots () - 1)
                topo sched)))
  in
  Trace.disable ();
  let events = Trace.events () in
  let timeline =
    List.filter (fun (e : Trace.event) -> e.Trace.pid = Trace.sim_pid) events
  in
  check Alcotest.int "nothing overwritten" 0 (Trace.dropped ());
  check Alcotest.int "every synthesis span kept" 10
    (List.length
       (List.filter
          (fun (e : Trace.event) -> String.starts_with ~prefix:"synth." e.Trace.name)
          events));
  check Alcotest.int "ring filled up to its free slots" 52 (List.length timeline);
  check Alcotest.int "every block's two spans emitted or cut" (2 * blocks)
    (List.length timeline + cut);
  Trace.enable ~capacity:65536 ();
  Trace.disable ()

(* --- Counters.reset quiescence contract -------------------------------- *)

let test_reset_zeroes_cells () =
  Counters.bump "test.obs.bumped";
  Counters.observe "test.obs.resettable" 5.0;
  Counters.reset ();
  check (Alcotest.float 1e-9) "int zeroed" 0.0 (Counters.value "test.obs.bumped");
  Alcotest.(check bool) "hist zeroed" true
    (not (List.mem_assoc "test.obs.resettable" (Counters.hist_snapshot ())))

let test_reset_with_quiesced_pool () =
  (* The supported pattern: drain the pool, then reset.  The pool's
     registered quiescence check must pass even with SYCCL_DEBUG set. *)
  let pool = Pool.get test_domains in
  List.init 32 (fun i -> Pool.submit pool (fun () -> i))
  |> List.iter (fun f -> ignore (Pool.await f));
  Unix.putenv "SYCCL_DEBUG" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SYCCL_DEBUG" "")
    (fun () -> Counters.reset ());
  check (Alcotest.float 1e-9) "reset ran" 0.0 (Counters.value "pool.tasks")

(* Must run last: the failing check stays registered for the rest of the
   process (there is deliberately no deregistration API). *)
let test_reset_failing_check_raises_in_debug () =
  Counters.register_quiescence_check "test.obs.never" (fun () -> false);
  Counters.reset ();
  (* Without SYCCL_DEBUG the failure is ignored (documented tear). *)
  Unix.putenv "SYCCL_DEBUG" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SYCCL_DEBUG" "")
    (fun () ->
      match Counters.reset () with
      | () -> Alcotest.fail "expected reset to raise under SYCCL_DEBUG"
      | exception Failure msg ->
          Alcotest.(check bool) "failure names the check" true
            (let re = "test.obs.never" in
             let n = String.length re and m = String.length msg in
             let rec scan i =
               i + n <= m && (String.sub msg i n = re || scan (i + 1))
             in
             scan 0))

let () =
  Alcotest.run "syccl-obs"
    [
      ( "trace",
        [
          Alcotest.test_case "export round-trips" `Quick test_export_round_trip;
          Alcotest.test_case "spans nested under pool" `Quick
            test_spans_nested_under_pool;
          Alcotest.test_case "span recorded on raise" `Quick
            test_span_recorded_on_raise;
          Alcotest.test_case "ring wrap drops oldest" `Quick test_ring_wrap_drops;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "timeline capped at free slots" `Quick
            test_timeline_capped_at_free_slots;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "prometheus exposition valid" `Quick
            test_prometheus_format;
          Alcotest.test_case "percentiles match Stats" `Quick
            test_hist_percentiles_match_stats;
          Alcotest.test_case "empty and snapshot" `Quick
            test_hist_empty_and_snapshot;
        ] );
      ( "sim-timeline",
        [ Alcotest.test_case "one track per port" `Quick test_sim_trace_tracks ] );
      ( "counters-reset",
        [
          Alcotest.test_case "zeroes cells" `Quick test_reset_zeroes_cells;
          Alcotest.test_case "quiesced pool passes" `Quick
            test_reset_with_quiesced_pool;
          Alcotest.test_case "failing check raises in debug" `Quick
            test_reset_failing_check_raises_in_debug;
        ] );
    ]
