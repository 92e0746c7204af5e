(* Tests for sketch replication, chunk allocation, and combination
   generation (§4.2–4.3). *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module Sketch = Syccl.Sketch
module Search = Syccl.Search
module Combine = Syccl.Combine

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_allocate_paper_example () =
  (* §4.2's worked example: combinations C4 and C5 use dimension bandwidth
     ratios 21:6 and 3:24; with link capacity 4:5 both transmit half the
     chunk.  We reproduce with a two-dimension topology whose bandwidth
     share is 4:5. *)
  let topo =
    Topology_stub.two_dim ~gbps0:4.0 ~gbps1:5.0
  in
  match Combine.allocate topo [ [| 21.0; 6.0 |]; [| 3.0; 24.0 |] ] with
  | None -> Alcotest.fail "allocation exists"
  | Some t ->
      check (Alcotest.float 1e-6) "t_C4" 0.5 t.(0);
      check (Alcotest.float 1e-6) "t_C5" 0.5 t.(1)

let test_allocate_infeasible () =
  (* One candidate using only dimension 0 cannot match a 1:1 target. *)
  let topo = Topology_stub.two_dim ~gbps0:5.0 ~gbps1:5.0 in
  check Alcotest.bool "infeasible allocation" true
    (Combine.allocate topo [ [| 1.0; 0.0 |] ] = None)

let test_allocate_single_feasible () =
  let topo = Topology_stub.two_dim ~gbps0:4.0 ~gbps1:5.0 in
  match Combine.allocate topo [ [| 4.0; 5.0 |] ] with
  | None -> Alcotest.fail "matching single candidate"
  | Some t -> check (Alcotest.float 1e-6) "t" 1.0 t.(0)

let test_replicate_balances_groups () =
  let topo = Builders.fig19 () in
  match Search.run topo ~kind:`Broadcast ~root:0 with
  | [] -> Alcotest.fail "sketches found"
  | s :: _ ->
      let replicas = Combine.replicate_balanced topo s in
      Alcotest.(check bool) "at least the original" true (List.length replicas >= 1);
      (* Summed workload must be uniform across groups per dimension. *)
      let total =
        Array.init (T.num_dims topo) (fun d ->
            Array.make (T.groups_count topo ~dim:d) 0.0)
      in
      List.iter
        (fun r ->
          let w = Sketch.workload topo r in
          Array.iteri
            (fun d row -> Array.iteri (fun g v -> total.(d).(g) <- total.(d).(g) +. v) row)
            w)
        replicas;
      Array.iteri
        (fun d row ->
          let s = Array.fold_left ( +. ) 0.0 row in
          if s > 0.0 then begin
            let lo = Array.fold_left Float.min infinity row in
            let hi = Array.fold_left Float.max neg_infinity row in
            if hi -. lo > 1e-6 *. Float.max 1.0 hi then
              Alcotest.failf "dim %d unbalanced after replication" d
          end)
        total

let test_all_to_all_replicas () =
  let topo = Builders.h800 ~servers:2 in
  match Search.run topo ~kind:`Broadcast ~root:0 with
  | [] -> Alcotest.fail "sketches found"
  | s :: _ ->
      let replicas = Combine.all_to_all_replicas topo s in
      check Alcotest.int "one per GPU" 16 (List.length replicas);
      let roots = List.map (fun (r : Sketch.t) -> r.Sketch.root) replicas in
      check Alcotest.(list int) "every root once" (List.init 16 (fun i -> i))
        (List.sort compare roots);
      List.iter
        (fun r ->
          match Sketch.check topo r with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        replicas

let test_combos_fractions_sum_to_one () =
  let topo = Builders.h800 ~servers:2 in
  let sketches = Search.run topo ~kind:`Broadcast ~root:0 in
  let sketches = List.filteri (fun i _ -> i < 6) sketches in
  let combos = Combine.combos_all_to_all topo sketches in
  Alcotest.(check bool) "combos generated" true (combos <> []);
  List.iter
    (fun (c : Combine.combo) ->
      (* Per root, fractions must sum to 1. *)
      let per_root = Hashtbl.create 16 in
      List.iter
        (fun ((s : Sketch.t), f) ->
          Hashtbl.replace per_root s.Sketch.root
            (f +. Option.value (Hashtbl.find_opt per_root s.Sketch.root) ~default:0.0))
        c.Combine.sketches;
      Hashtbl.iter
        (fun root total ->
          if Float.abs (total -. 1.0) > 1e-6 then
            Alcotest.failf "%s: root %d carries fraction %g" c.Combine.desc root total)
        per_root)
    combos

let test_combos_one_to_all () =
  let topo = Builders.fig19 () in
  let sketches = Search.run topo ~kind:`Broadcast ~root:0 in
  let sketches = List.filteri (fun i _ -> i < 5) sketches in
  let combos = Combine.combos_one_to_all topo sketches in
  Alcotest.(check bool) "solo combos present" true
    (List.exists
       (fun (c : Combine.combo) -> List.length c.Combine.sketches = 1)
       combos);
  List.iter
    (fun (c : Combine.combo) ->
      let total = List.fold_left (fun a (_, f) -> a +. f) 0.0 c.Combine.sketches in
      (* All sketches share root 0 here, so fractions sum to 1. *)
      if Float.abs (total -. 1.0) > 1e-6 then
        Alcotest.failf "%s sums to %g" c.Combine.desc total)
    combos

(* Generation stops at the cap, and what it returns is the cap-length
   prefix of the uncapped generation order. *)
let test_cap_is_prefix () =
  let module X = Syccl_util.Xrand in
  let module Gen = Syccl_check.Gen in
  for seed = 1 to 6 do
    let rng = X.create (9100 + seed) in
    let topo = Gen.topology rng in
    let n = T.num_gpus topo in
    let all_to_all = seed mod 3 = 0 in
    let kind = if all_to_all then `Scatter else `Broadcast in
    let root = X.int rng n in
    let sketches =
      Search.run ~config:(Search.default topo kind) topo ~kind ~root
      |> List.filteri (fun i _ -> i < 6)
    in
    let combos ?max_combos () =
      if all_to_all then Combine.combos_all_to_all ?max_combos topo sketches
      else Combine.combos_one_to_all ?max_combos topo sketches
    in
    let uncapped = combos ~max_combos:max_int () in
    let total = List.length uncapped in
    List.iter
      (fun k ->
        let capped = combos ~max_combos:k () in
        let want = List.filteri (fun i _ -> i < k) uncapped in
        if capped <> want then
          Alcotest.failf "%s (seed %d): max_combos %d is not the first %d of %d"
            topo.T.name seed k k total)
      [ 0; 1; 2; 5; 9; 13; total ]
  done

(* A 6-GPU multi-rail Reduce with 262 sketches (canon-differential, seed 1,
   case 13): generating every combo before keeping four took seconds. *)
let test_cap_many_sketches () =
  let module Coll = Syccl_collective.Collective in
  let module Gen = Syccl_check.Gen in
  let rng =
    Syccl_check.Fuzz.case_rng ~seed:1 ~prop:"canon-differential" ~case:13
  in
  (* The property's draws: topology, puncture coin (healthy here), phase. *)
  let topo = Gen.topology rng in
  ignore (Syccl_util.Xrand.int rng 3);
  let coll =
    Gen.collective rng ~n:(T.num_gpus topo)
      ~kinds:
        Coll.
          [| Broadcast; Scatter; Gather; Reduce; AllGather; AllToAll;
             ReduceScatter |]
  in
  let p0 = List.hd (Coll.decompose coll) in
  let kind = p0.Coll.p_kind in
  let sketches =
    Search.run ~config:(Search.default topo kind) topo ~kind ~root:p0.Coll.p_root
  in
  check Alcotest.int "sketches" 262 (List.length sketches);
  check Alcotest.int "combos" 4
    (List.length (Combine.combos_one_to_all ~max_combos:4 topo sketches))

let all_to_all_uniform_prop =
  (* Rotating the root through every GPU spreads per-(dim, group) workload
     exactly evenly on a multirail cluster. *)
  QCheck.Test.make ~name:"all-to-all replication balances every group" ~count:10
    QCheck.(int_bound 7)
    (fun idx ->
      let topo = Builders.h800 ~servers:2 in
      let sketches = Search.run topo ~kind:`Broadcast ~root:0 in
      match List.nth_opt sketches (idx mod max 1 (List.length sketches)) with
      | None -> true
      | Some base ->
          let replicas = Combine.all_to_all_replicas topo base in
          let total =
            Array.init (T.num_dims topo) (fun d ->
                Array.make (T.groups_count topo ~dim:d) 0.0)
          in
          List.iter
            (fun r ->
              Array.iteri
                (fun d row ->
                  Array.iteri (fun g v -> total.(d).(g) <- total.(d).(g) +. v) row)
                (Sketch.workload topo r))
            replicas;
          Array.for_all
            (fun row ->
              let lo = Array.fold_left Float.min infinity row in
              let hi = Array.fold_left Float.max neg_infinity row in
              hi -. lo <= 1e-6 *. Float.max 1.0 hi)
            total)

let test_allocate_three_port_groups () =
  (* Three independent port groups need three complementary candidates. *)
  let nv = Link.make ~alpha:1e-6 ~gbps:60.0 in
  let rail = Link.make ~alpha:1e-6 ~gbps:30.0 in
  let topo =
    Syccl_topology.Topology.make ~name:"three-pg" ~shape:[| 2; 2; 2 |]
      ~dims:
        [
          ("a", [ 2 ], nv, 0);
          ("b", [ 1 ], rail, 1);
          ("c", [ 0 ], Link.make ~alpha:1e-6 ~gbps:10.0, 2);
        ]
  in
  (* Shares 60:30:10 = 0.6/0.3/0.1. *)
  match
    Combine.allocate topo [ [| 10.0; 0.0; 0.0 |]; [| 0.0; 10.0; 0.0 |]; [| 0.0; 0.0; 10.0 |] ]
  with
  | None -> Alcotest.fail "feasible"
  | Some t ->
      check (Alcotest.float 1e-6) "t0" 0.6 t.(0);
      check (Alcotest.float 1e-6) "t1" 0.3 t.(1);
      check (Alcotest.float 1e-6) "t2" 0.1 t.(2)

let test_shared_port_group_pooling () =
  (* Rail and spine share the NIC: a candidate using only the spine can pair
     with an NVLink-heavy one because their port-group loads pool. *)
  let topo = Builders.h800 ~servers:2 in
  (* NVLink:NIC capacity = 180:50.  Candidate A all-NVLink, candidate B
     all-spine (same port group as rail): t must split 180/230 : 50/230. *)
  match Combine.allocate topo [ [| 10.0; 0.0; 0.0 |]; [| 0.0; 0.0; 10.0 |] ] with
  | None -> Alcotest.fail "feasible"
  | Some t ->
      check (Alcotest.float 1e-6) "nvlink share" (180.0 /. 230.0) t.(0);
      check (Alcotest.float 1e-6) "nic share" (50.0 /. 230.0) t.(1)

let suite =
  [
    qtest all_to_all_uniform_prop;
    ("allocate: three port groups", `Quick, test_allocate_three_port_groups);
    ("allocate: shared port group pooling", `Quick, test_shared_port_group_pooling);
    ("allocate: paper example", `Quick, test_allocate_paper_example);
    ("allocate: infeasible", `Quick, test_allocate_infeasible);
    ("allocate: single candidate", `Quick, test_allocate_single_feasible);
    ("replicate balances groups", `Quick, test_replicate_balances_groups);
    ("all-to-all replicas", `Quick, test_all_to_all_replicas);
    ("combo fractions sum to one", `Quick, test_combos_fractions_sum_to_one);
    ("one-to-all combos", `Quick, test_combos_one_to_all);
    ("max_combos keeps a prefix", `Quick, test_cap_is_prefix);
    ("max_combos stops generation", `Quick, test_cap_many_sketches);
  ]
