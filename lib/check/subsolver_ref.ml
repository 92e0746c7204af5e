(* The pre-rewrite sub-demand canonicalization, kept verbatim as the
   differential oracle for Syccl.Subsolver (role tuples with rendered size
   keys, a Hashtbl position map and the Marshal-string class key,
   re-canonicalized on every call).  Test-only: production code uses
   Subsolver.canon, which must induce the same class partition and the
   same transferred schedules, and Subsolver.verify, which must return the
   same verdicts. *)

module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault
module Schedule = Syccl_sim.Schedule
open Syccl.Subsolver

let size_key s = Printf.sprintf "%.6e" s

(* Size-independent key: entry sizes as ratios of the demand's largest
   entry.  Ratios are invariant under uniform scaling, so two demands that
   differ only by chunk size canonicalize identically — the basis of the
   cross-size sub-solve memoization. *)
let max_entry_size demand =
  let m = List.fold_left (fun a e -> Float.max a e.e_size) 0.0 demand.entries in
  if m > 0.0 then m else 1.0

let rel_key base s = Printf.sprintf "%.5f" (s /. base)

(* Canonical intra-group position order: positions sorted by their multiset
   of roles across entries (1 round of refinement), ties by raw position.
   Good enough to align symmetric demands; a failed alignment is caught by
   verification and re-solved directly.  [sk] renders entry sizes into the
   role keys: absolute by default, relative for cross-size matching. *)
let canonical_positions ?(sk = size_key) topo demand =
  let members = Topology.gpus_in_group topo ~dim:demand.d_dim ~group:demand.d_group in
  let np = Array.length members in
  let pos_of = Hashtbl.create np in
  Array.iteri (fun i v -> Hashtbl.replace pos_of v i) members;
  let role p =
    let v = members.(p) in
    (* Refine positions by their fault adjacency first: a member sitting
       next to a dead link (or itself dead) must never be aligned with a
       pristine member of an isomorphic demand, or the transferred solution
       would route through the hole.  Constant on healthy topologies, so
       the canonical order there is unchanged. *)
    let fault_sig =
      if Fault.is_empty (Topology.faults topo) then (true, 0)
      else
        ( Topology.gpu_alive topo v,
          Array.fold_left
            (fun acc u ->
              if u <> v && not (Topology.edge_alive topo ~dim:demand.d_dim u v)
              then acc + 1
              else acc)
            0 members )
    in
    ( fault_sig,
      List.sort compare
        (List.filter_map
           (fun e ->
             let s = List.mem v e.e_srcs and d = List.mem v e.e_dsts in
             if s || d then Some (sk e.e_size, s, d, List.length e.e_srcs, List.length e.e_dsts)
             else None)
           demand.entries) )
  in
  let order = Array.init np (fun i -> i) in
  let roles = Array.init np role in
  Array.sort (fun a b ->
      let c = compare roles.(a) roles.(b) in
      if c <> 0 then c else compare a b)
    order;
  (* rank.(p) = canonical index of position p *)
  let rank = Array.make np 0 in
  Array.iteri (fun i p -> rank.(p) <- i) order;
  (members, pos_of, rank, order)

let class_key_with sk topo demand =
  let members, pos_of, rank, _ = canonical_positions ~sk topo demand in
  let canon_gpu v = rank.(Hashtbl.find pos_of v) in
  let entry_key e =
    ( sk e.e_size,
      List.sort compare (List.map canon_gpu e.e_srcs),
      List.sort compare (List.map canon_gpu e.e_dsts) )
  in
  let keys = List.sort compare (List.map entry_key demand.entries) in
  (* Canonical dead-edge set within the group: demands over groups with
     different fault patterns must land in different isomorphism classes
     (empty, hence key-neutral, on healthy topologies). *)
  let dead_edges =
    if Fault.is_empty (Topology.faults topo) then []
    else begin
      let acc = ref [] in
      Array.iteri
        (fun i u ->
          Array.iteri
            (fun j v ->
              if
                i < j
                && not (Topology.edge_alive topo ~dim:demand.d_dim u v)
              then
                acc :=
                  (min rank.(i) rank.(j), max rank.(i) rank.(j)) :: !acc)
            members)
        members;
      List.sort compare !acc
    end
  in
  Marshal.to_string (demand.d_dim, Array.length members, keys, dead_edges) []

let class_key topo demand = class_key_with size_key topo demand

let norm_class_key topo demand =
  class_key_with (rel_key (max_entry_size demand)) topo demand

(* Causal check per entry: following the entry's transfers from its source
   set must deliver every destination, each exactly once. *)
let verify topo demand xfers =
  let ok = ref true in
  List.iteri
    (fun i e ->
      let mine = List.filter (fun (x : Schedule.xfer) -> x.chunk = i) xfers in
      let holders = Hashtbl.create 8 in
      List.iter (fun v -> Hashtbl.replace holders v ()) e.e_srcs;
      let received = Hashtbl.create 8 in
      let remaining = ref mine and progress = ref true in
      while !progress do
        progress := false;
        let still = ref [] in
        List.iter
          (fun (x : Schedule.xfer) ->
            if Hashtbl.mem holders x.src then begin
              if Hashtbl.mem received x.dst || Hashtbl.mem holders x.dst then ok := false;
              Hashtbl.replace holders x.dst ();
              Hashtbl.replace received x.dst ();
              progress := true
            end
            else still := x :: !still)
          !remaining;
        remaining := !still
      done;
      if !remaining <> [] then ok := false;
      List.iter (fun v -> if not (Hashtbl.mem holders v) then ok := false) e.e_dsts;
      (* Transfers must stay inside the demand's group/dimension. *)
      List.iter
        (fun (x : Schedule.xfer) ->
          if
            x.dim <> demand.d_dim
            || Topology.group_of topo ~dim:x.dim x.src <> demand.d_group
            || Topology.group_of topo ~dim:x.dim x.dst <> demand.d_group
            || not (Topology.edge_alive topo ~dim:x.dim x.src x.dst)
          then ok := false)
        mine)
    demand.entries;
  !ok


let transfer ?(normalized = false) topo ~rep ~rep_xfers demand =
  if
    rep.d_dim = demand.d_dim && rep.d_group = demand.d_group
    && rep.entries = demand.entries
  then
    (* Identity mapping: the solution was produced (or already verified)
       for these exact entries in the same group of the same dimension, so
       re-verification — a full simulation — is redundant.  This is the
       common case for the representative's own member and for repeated
       solves of the same problem.  Structurally equal entries under a
       different dim/group must take the general (verified) path: the
       rep's xfers carry its own dim. *)
    Some rep_xfers
  else
  (* Cross-size hits use relative size keys (each demand normalized by its
     own largest entry); same-size mapping keeps exact absolute keys. *)
  let sk_rep = if normalized then rel_key (max_entry_size rep) else size_key in
  let sk_dem = if normalized then rel_key (max_entry_size demand) else size_key in
  let rep_members, rep_pos, rep_rank, _ = canonical_positions ~sk:sk_rep topo rep in
  let dem_members, _, _, dem_order = canonical_positions ~sk:sk_dem topo demand in
  if Array.length rep_members <> Array.length dem_members then None
  else
  (* rep GPU -> canonical rank -> demand GPU. *)
  let gpu_map v = dem_members.(dem_order.(rep_rank.(Hashtbl.find rep_pos v))) in
  (* Entry correspondence: sort both entry lists by canonical key. *)
  let entry_keyed sk d rank_of pos_of =
    List.mapi
      (fun i e ->
        let canon v = rank_of.(Hashtbl.find pos_of v) in
        ( ( sk e.e_size,
            List.sort compare (List.map canon e.e_srcs),
            List.sort compare (List.map canon e.e_dsts) ),
          i ))
      d.entries
    |> List.sort compare
  in
  let _, dem_pos, dem_rank, _ = canonical_positions ~sk:sk_dem topo demand in
  let rep_entries = entry_keyed sk_rep rep rep_rank rep_pos in
  let dem_entries = entry_keyed sk_dem demand dem_rank dem_pos in
  if List.map fst rep_entries <> List.map fst dem_entries then None
  else begin
    let chunk_map = Hashtbl.create 16 in
    List.iter2
      (fun (_, ri) (_, di) -> Hashtbl.replace chunk_map ri di)
      rep_entries dem_entries;
    (* A widened rep solution (disconnected faulted group, see
       [solve_demand]) may relay through GPUs outside the group; those have
       no canonical position, so the mapping is undefined — decline the
       transfer and let the caller solve the member directly. *)
    match
      List.map
        (fun (x : Schedule.xfer) ->
          {
            x with
            chunk = Hashtbl.find chunk_map x.chunk;
            src = gpu_map x.src;
            dst = gpu_map x.dst;
          })
        rep_xfers
    with
    | exception Not_found -> None
    | mapped -> if verify topo demand mapped then Some mapped else None
  end

