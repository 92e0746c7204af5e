(* The pre-rewrite validator, kept verbatim as the differential oracle for
   Syccl_sim.Validate (per-chunk List.filter, per-tag chunk scans).
   Test-only: production code validates with Validate, which must give the
   same verdicts and the same error strings. *)

module Schedule = Syccl_sim.Schedule
module Topology = Syccl_topology.Topology
module Collective = Syccl_collective.Collective

let ( let* ) = Result.bind

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let check_structure topo (s : Schedule.t) =
  let nc = Array.length s.chunks in
  let rec go = function
    | [] -> Ok ()
    | (x : Schedule.xfer) :: rest ->
        if x.chunk < 0 || x.chunk >= nc then err "xfer references chunk %d" x.chunk
        else if x.src = x.dst then err "self-transfer at GPU %d" x.src
        else if x.dim < 0 || x.dim >= Topology.num_dims topo then
          err "xfer uses bad dimension %d" x.dim
        else if
          Topology.group_of topo ~dim:x.dim x.src
          <> Topology.group_of topo ~dim:x.dim x.dst
        then err "xfer %d->%d: not peers in dimension %d" x.src x.dst x.dim
        else if not (Topology.gpu_alive topo x.src) then
          err "xfer %d->%d: source GPU is down" x.src x.dst
        else if not (Topology.gpu_alive topo x.dst) then
          err "xfer %d->%d: destination GPU is down" x.src x.dst
        else if not (Topology.edge_alive topo ~dim:x.dim x.src x.dst) then
          err "xfer %d->%d: edge is down in dimension %d (faults %s)" x.src
            x.dst x.dim
            (Syccl_topology.Fault.encode (Topology.faults topo))
        else go rest
  in
  go s.xfers

let check_gather_chunk (s : Schedule.t) c meta =
  let xfers = List.filter (fun (x : Schedule.xfer) -> x.chunk = c) s.xfers in
  (* No GPU may receive the chunk more than once (bandwidth waste, §4.1),
     nor receive it if it already holds it initially. *)
  let dsts = List.map (fun (x : Schedule.xfer) -> x.dst) xfers in
  let dup =
    List.length dsts <> List.length (List.sort_uniq compare dsts)
    || List.exists (fun d -> List.mem d meta.Schedule.initial) dsts
  in
  if dup then err "chunk %d delivered twice to some GPU" c
  else begin
    (* Causal fixpoint: a transfer fires once its source holds the chunk. *)
    let holders = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace holders v ()) meta.Schedule.initial;
    let remaining = ref xfers in
    let progress = ref true in
    while !progress do
      progress := false;
      let still = ref [] in
      List.iter
        (fun (x : Schedule.xfer) ->
          if Hashtbl.mem holders x.src then begin
            Hashtbl.replace holders x.dst ();
            progress := true
          end
          else still := x :: !still)
        !remaining;
      remaining := !still
    done;
    if !remaining <> [] then err "chunk %d: some transfers can never fire" c
    else
      match
        List.find_opt (fun v -> not (Hashtbl.mem holders v)) meta.Schedule.wanted
      with
      | Some v -> err "chunk %d never reaches GPU %d" c v
      | None -> Ok ()
  end

let check_reduce_chunk (s : Schedule.t) c meta =
  let xfers = List.filter (fun (x : Schedule.xfer) -> x.chunk = c) s.xfers in
  match meta.Schedule.wanted with
  | [ dst ] ->
      (* Each GPU sends at most once: the transfers form a functional graph
         that must flow into [dst] from every contributor, acyclically. *)
      let next = Hashtbl.create 16 in
      let dup = ref false in
      List.iter
        (fun (x : Schedule.xfer) ->
          if Hashtbl.mem next x.src then dup := true
          else Hashtbl.replace next x.src x.dst)
        xfers;
      if !dup then err "reduce chunk %d: a GPU sends twice" c
      else if Hashtbl.mem next dst then err "reduce chunk %d: destination %d sends" c dst
      else begin
        let reaches v =
          let rec walk v steps =
            if v = dst then true
            else if steps > List.length xfers then false
            else
              match Hashtbl.find_opt next v with
              | None -> false
              | Some u -> walk u (steps + 1)
          in
          walk v 0
        in
        (* Every sender — not just the initial holders — must flow into
           [dst] acyclically; a cycle among non-contributors (v1->v2,
           v2->v1) must not validate just because each is some transfer's
           destination. *)
        match
          List.find_opt (fun (x : Schedule.xfer) -> not (reaches x.src)) xfers
        with
        | Some x ->
            err "reduce chunk %d: GPU %d sends but never reaches %d" c x.src dst
        | None -> (
            match
              List.find_opt
                (fun v -> v <> dst && not (reaches v))
                meta.Schedule.initial
            with
            | Some v ->
                err "reduce chunk %d: contribution of GPU %d never reaches %d" c
                  v dst
            | None ->
                (* Causal data possession: a sender must either contribute
                   its own value or have received a partial from a sender
                   that itself holds data — computed as a fixpoint so a
                   chain (or cycle) of empty-handed relays cannot bless
                   itself into the reduction. *)
                let has_data = Hashtbl.create 16 in
                List.iter
                  (fun v -> Hashtbl.replace has_data v ())
                  meta.Schedule.initial;
                let progress = ref true in
                while !progress do
                  progress := false;
                  List.iter
                    (fun (x : Schedule.xfer) ->
                      if
                        Hashtbl.mem has_data x.src
                        && not (Hashtbl.mem has_data x.dst)
                      then begin
                        Hashtbl.replace has_data x.dst ();
                        progress := true
                      end)
                    xfers
                done;
                (match
                   List.find_opt
                     (fun (x : Schedule.xfer) -> not (Hashtbl.mem has_data x.src))
                     xfers
                 with
                | Some x ->
                    err "reduce chunk %d: GPU %d sends without holding data" c
                      x.src
                | None -> Ok ()))
      end
  | _ -> err "reduce chunk %d must have exactly one destination" c

let check topo (s : Schedule.t) =
  let* () = check_structure topo s in
  let rec go c =
    if c >= Array.length s.chunks then Ok ()
    else
      let meta = s.chunks.(c) in
      let* () =
        match meta.Schedule.mode with
        | `Gather -> check_gather_chunk s c meta
        | `Reduce -> check_reduce_chunk s c meta
      in
      go (c + 1)
  in
  go 0

let covers topo coll (s : Schedule.t) =
  let* () = check topo s in
  let demand = Collective.chunks coll in
  let by_tag tag =
    List.filter (fun (_, m) -> m.Schedule.tag = tag)
      (Array.to_list (Array.mapi (fun i m -> (i, m)) s.chunks))
  in
  let rec go = function
    | [] -> Ok ()
    | Collective.Gather_chunk { id; size; src; dsts } :: rest ->
        let frs = by_tag id in
        if frs = [] then err "demand chunk %d has no schedule chunks" id
        else begin
          let total = List.fold_left (fun a (_, m) -> a +. m.Schedule.size) 0.0 frs in
          if Float.abs (total -. size) > 1e-3 *. size then
            err "demand chunk %d: fractions sum to %g, expected %g" id total size
          else
            match
              List.find_opt
                (fun (_, m) ->
                  m.Schedule.mode <> `Gather
                  || not (List.mem src m.Schedule.initial)
                  || not
                       (List.for_all
                          (fun d ->
                            List.mem d m.Schedule.wanted
                            || List.mem d m.Schedule.initial)
                          dsts))
                frs
            with
            | Some (i, _) -> err "demand chunk %d: schedule chunk %d mismatched" id i
            | None -> go rest
        end
    | Collective.Reduce_chunk { id; size; dst; srcs } :: rest ->
        let frs = by_tag id in
        if frs = [] then err "demand chunk %d has no schedule chunks" id
        else begin
          let total = List.fold_left (fun a (_, m) -> a +. m.Schedule.size) 0.0 frs in
          if Float.abs (total -. size) > 1e-3 *. size then
            err "demand chunk %d: fractions sum to %g, expected %g" id total size
          else
            match
              List.find_opt
                (fun (_, m) ->
                  (* Set equality, not mere inclusion: an [initial] GPU
                     outside the demanded contributor set would inject an
                     extra operand into the reduction. *)
                  m.Schedule.mode <> `Reduce
                  || m.Schedule.wanted <> [ dst ]
                  || List.sort_uniq compare m.Schedule.initial
                     <> List.sort_uniq compare srcs)
                frs
            with
            | Some (i, _) -> err "demand chunk %d: schedule chunk %d mismatched" id i
            | None -> go rest
        end
  in
  go demand

(* Whole-outcome validation: one schedule per collective phase (AllReduce =
   ReduceScatter then AllGather), each checked for self-consistency and
   demand coverage.  The degradation ladder runs this on every rung before
   returning, fallback included. *)
let validate topo coll schedules =
  let phases = Collective.phases coll in
  let np = List.length phases and ns = List.length schedules in
  if np <> ns then err "expected %d phase schedules, got %d" np ns
  else
    List.fold_left2
      (fun acc (i, phase) s ->
        let* () = acc in
        Result.map_error
          (fun e -> Printf.sprintf "phase %d: %s" i e)
          (covers topo phase s))
      (Ok ())
      (List.mapi (fun i p -> (i, p)) phases)
      schedules
