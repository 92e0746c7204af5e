module Topology = Syccl_topology.Topology
module Linalg = Syccl_util.Linalg

type combo = { sketches : (Sketch.t * float) list; desc : string }

let add_load acc w =
  Array.iteri (fun d row -> Array.iteri (fun g v -> acc.(d).(g) <- acc.(d).(g) +. v) row) w

let zero_load topo =
  Array.init (Topology.num_dims topo) (fun d ->
      Array.make (Topology.groups_count topo ~dim:d) 0.0)

let balanced load =
  Array.for_all
    (fun row ->
      let total = Array.fold_left ( +. ) 0.0 row in
      total = 0.0
      ||
      let lo = Array.fold_left Float.min infinity row in
      let hi = Array.fold_left Float.max neg_infinity row in
      hi -. lo <= 1e-6 *. Float.max 1.0 hi)
    load

let replicate_balanced topo ?max_replicas sketch =
  let cap =
    match max_replicas with
    | Some c -> c
    | None ->
        2
        * Array.fold_left
            (fun acc d -> max acc (Topology.groups_count topo ~dim:d))
            1
            (Array.init (Topology.num_dims topo) (fun d -> d))
  in
  let shape = Sketch.shape topo sketch in
  let load = zero_load topo in
  add_load load (Sketch.workload topo sketch);
  let replicas = ref [ sketch ] in
  let count = ref 1 in
  while (not (balanced load)) && !count < cap do
    match
      Search.instantiate topo ~kind:sketch.Sketch.kind ~root:sketch.Sketch.root
        ~shape ~load
    with
    | None -> count := cap (* shape no longer instantiable; stop *)
    | Some r ->
        add_load load (Sketch.workload topo r);
        replicas := r :: !replicas;
        incr count
  done;
  List.rev !replicas

let all_to_all_replicas topo sketch =
  let n = Topology.num_gpus topo in
  List.init n (fun v ->
      if v = sketch.Sketch.root then sketch
      else
        let perm = Topology.automorphism_to topo ~src:sketch.Sketch.root ~dst:v in
        Sketch.map topo perm sketch)

let allocate topo workloads =
  let k = List.length workloads in
  if k = 0 then None
  else begin
    let nd = Topology.num_dims topo in
    (* Full utilization is per physical port group: dimensions sharing the
       NIC (same-rail and spine traffic) pool their workload against one
       capacity. *)
    let pg_of d = (Topology.dim topo d).Syccl_topology.Topology.port_group in
    let pgs =
      List.sort_uniq compare (List.init nd (fun d -> pg_of d))
    in
    let share = Topology.bandwidth_share topo in
    let pg_share pg =
      (* Every dim of the port group reports the same port's bandwidth. *)
      let d = List.find (fun d -> pg_of d = pg) (List.init nd (fun d -> d)) in
      share.(d)
    in
    let w =
      Array.of_list
        (List.map
           (fun per_dim ->
             List.map
               (fun pg ->
                 List.fold_left
                   (fun a d -> if pg_of d = pg then a +. per_dim.(d) else a)
                   0.0
                   (List.init nd (fun d -> d)))
               pgs
             |> Array.of_list)
           workloads)
    in
    let u = Array.of_list (List.map pg_share pgs) in
    let total_u = Array.fold_left ( +. ) 0.0 u in
    let u = Array.map (fun x -> x /. total_u) u in
    (* Rows: for every port group, Σ_i t_i (w_{i,pg} − u_pg Σ_pg' w_{i,pg'})
       = 0; plus Σ t_i = 1.  Every port group appears, so a candidate set
       leaving capacity idle is rejected. *)
    let npg = List.length pgs in
    let rows =
      List.init npg (fun p ->
          Array.init k (fun i ->
              let wtot = Array.fold_left ( +. ) 0.0 w.(i) in
              w.(i).(p) -. (u.(p) *. wtot)))
      @ [ Array.make k 1.0 ]
    in
    let rhs = Array.of_list (List.init npg (fun _ -> 0.0) @ [ 1.0 ]) in
    let a = Array.of_list rows in
    match Linalg.lstsq a rhs with
    | None -> None
    | Some t ->
        let ok =
          Linalg.residual a t rhs < 1e-6 && Array.for_all (fun ti -> ti >= -1e-9) t
        in
        if ok then Some (Array.map (fun ti -> Float.max 0.0 ti) t) else None
  end

(* Number of sketches sharing one root in a replica set: the chunk fraction
   each carries is 1 / copies (for equal split within a balanced set). *)
let copies_per_root replicas =
  let per_root = Hashtbl.create 8 in
  List.iter
    (fun (s : Sketch.t) ->
      Hashtbl.replace per_root s.Sketch.root
        (1 + Option.value (Hashtbl.find_opt per_root s.Sketch.root) ~default:0))
    replicas;
  Hashtbl.fold (fun _ c acc -> max acc c) per_root 1

let set_dim_workload topo replicas =
  let acc = Array.make (Topology.num_dims topo) 0.0 in
  List.iter
    (fun s ->
      Array.iteri (fun d v -> acc.(d) <- acc.(d) +. v) (Sketch.dim_workload topo s))
    replicas;
  acc

exception Out_of_time

(* [expand ~balance base] yields the replica set of one base sketch: without
   balance, the minimal set (one sketch per root); with balance, the
   group-balanced set of §4.2 step 1.  Combo generation is monotone — each
   step appends candidates — so it stops as soon as [max_combos] exist (the
   result is a prefix of generation order either way), and deadline expiry
   stops it early with the combos built so far (solo combos first, so a
   tight budget still yields the latency-optimal candidates).  Only expiry
   marks the budget degraded; reaching the cap does not. *)
let build_combos ~max_combos ~budget topo bases expand =
  let combos = ref [] and count = ref 0 in
  let exception Full in
  let add c =
    combos := c :: !combos;
    incr count;
    if !count >= max_combos then raise Full
  in
  let check_budget () =
    if Syccl_util.Budget.expired budget then begin
      Syccl_util.Budget.mark_degraded budget;
      raise Out_of_time
    end
  in
  (try
     if max_combos <= 0 then raise Full;
     (* Solo combos: a single sketch per root, carrying the whole chunk —
        the latency-optimal option for small sizes (§4.2). *)
     List.iteri
       (fun i base ->
         add
           {
             sketches =
               List.map (fun s -> (s, 1.0)) (expand ~balance:false base);
             desc = Printf.sprintf "shape%d solo" i;
           })
       bases;
     (try
        (* Balanced replica sets (step 1), with their per-root copy counts.
           Expansion stops once the sets with copies > 1 fill the cap: the
           combos they make are all the cap leaves room for.  Expiry before
           that drops every balanced combo, so none is added until the sets
           are done. *)
        let rec expand_sets acc n i = function
          | [] -> List.rev acc
          | _ when n >= max_combos -> List.rev acc
          | base :: rest ->
              check_budget ();
              let replicas = expand ~balance:true base in
              let copies = copies_per_root replicas in
              expand_sets
                ((i, replicas, copies) :: acc)
                (if copies > 1 then n + 1 else n)
                (i + 1) rest
        in
        let balanced_sets = expand_sets [] !count 0 bases in
        List.iter
          (fun (i, replicas, copies) ->
            if copies > 1 then begin
              let t = 1.0 /. float_of_int copies in
              add
                {
                  sketches = List.map (fun s -> (s, t)) replicas;
                  desc = Printf.sprintf "shape%d x%d" i copies;
                }
            end)
          balanced_sets;
        (* Step 2: dimension-balanced integrations of 2–3 balanced sets.
           Set workloads are precomputed: the tuple loops must not rescan
           hundreds of sketches per pair. *)
        let sets = Array.of_list balanced_sets in
        let ns = Array.length sets in
        let set_wl =
          Array.map (fun (_, reps, _) -> set_dim_workload topo reps) sets
        in
        let try_tuple idxs =
          check_budget ();
          let wl = List.map (fun i -> set_wl.(i)) idxs in
          match allocate topo wl with
          | None -> ()
          | Some t ->
              let parts =
                List.concat
                  (List.mapi
                     (fun j i ->
                       let _, replicas, copies = sets.(i) in
                       let frac = t.(j) /. float_of_int copies in
                       if frac < 1e-9 then []
                       else List.map (fun s -> (s, frac)) replicas)
                     idxs)
              in
              let nonzero =
                Array.to_list t |> List.filter (fun x -> x > 1e-9)
              in
              if parts <> [] && List.length nonzero >= 2 then
                add
                  {
                    sketches = parts;
                    desc =
                      Printf.sprintf "mix[%s] t=[%s]"
                        (String.concat ";" (List.map string_of_int idxs))
                        (String.concat ";"
                           (Array.to_list
                              (Array.map (Printf.sprintf "%.3f") t)));
                  }
        in
        for i = 0 to ns - 1 do
          for j = i + 1 to ns - 1 do
            try_tuple [ i; j ]
          done
        done;
        if Topology.num_dims topo >= 3 then
          for i = 0 to ns - 1 do
            for j = i + 1 to ns - 1 do
              for l = j + 1 to ns - 1 do
                try_tuple [ i; j; l ]
              done
            done
          done
      with Out_of_time -> ())
   with Full -> ());
  List.rev !combos

let combos_one_to_all ?(max_combos = 48)
    ?(budget = Syccl_util.Budget.unlimited) topo sketches =
  Syccl_util.Trace.with_span ~cat:"combine" "combine.one_to_all"
    ~args:[ ("sketches", string_of_int (List.length sketches)) ]
  @@ fun () ->
  build_combos ~max_combos ~budget topo sketches (fun ~balance base ->
      if balance then replicate_balanced topo base else [ base ])

let combos_all_to_all ?(max_combos = 48)
    ?(budget = Syccl_util.Budget.unlimited) topo sketches =
  Syccl_util.Trace.with_span ~cat:"combine" "combine.all_to_all"
    ~args:[ ("sketches", string_of_int (List.length sketches)) ]
  @@ fun () ->
  build_combos ~max_combos ~budget topo sketches (fun ~balance base ->
      ignore balance;
      (* Rotating the root through every GPU already spreads group workload
         evenly on the symmetric topologies we target. *)
      all_to_all_replicas topo base)
