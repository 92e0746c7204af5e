(* The pre-rewrite α-β simulator, kept verbatim as the differential oracle
   for Syccl_sim.Sim (polymorphic Pqueue, tuple-keyed Hashtbls).  Test-only:
   production code simulates with Sim.run, which must agree bit for bit. *)

module Schedule = Syccl_sim.Schedule
module Topology = Syccl_topology.Topology
module Pqueue = Syccl_util.Pqueue
module Trace = Syccl_util.Trace

type report = Syccl_sim.Sim.report = {
  time : float;
  events : int;
  xfer_finish : float array;
}

(* A queue entry is one block of one transfer whose data dependency has
   resolved; [avail] is when the source can first inject it. *)
type entry = { avail : float; prio : int; xid : int; block : int }

let run ?(blocks = 8) ?trace_pid topo (s : Schedule.t) =
  Syccl_util.Faultpoint.inject "sim.crash";
  let xa = Array.of_list s.xfers in
  let nx = Array.length xa in
  let nc = Array.length s.chunks in
  Array.iter
    (fun (x : Schedule.xfer) ->
      if x.chunk < 0 || x.chunk >= nc then
        invalid_arg "Sim.run: transfer references missing chunk";
      if x.dim < 0 || x.dim >= Topology.num_dims topo then
        invalid_arg "Sim.run: bad dimension";
      if
        Topology.group_of topo ~dim:x.dim x.src
        <> Topology.group_of topo ~dim:x.dim x.dst
        || x.src = x.dst
      then invalid_arg "Sim.run: endpoints are not peers in the dimension";
      if not (Topology.edge_alive topo ~dim:x.dim x.src x.dst) then
        invalid_arg "Sim.run: transfer crosses a dead edge")
    xa;
  (* Per-chunk block count: pipelining never splits below one byte. *)
  let nblocks =
    Array.map
      (fun (c : Schedule.chunk_meta) ->
        max 1 (min blocks (int_of_float c.size)))
      s.chunks
  in
  (* Dependents: transfers of chunk [c] leaving GPU [v]. *)
  let dependents = Hashtbl.create (2 * max 1 nx) in
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let key = (x.chunk, x.src) in
      Hashtbl.replace dependents key
        (i :: Option.value (Hashtbl.find_opt dependents key) ~default:[]))
    xa;
  let inbound_cnt = Hashtbl.create (2 * max 1 nx) in
  Array.iter
    (fun (x : Schedule.xfer) ->
      let key = (x.chunk, x.dst) in
      Hashtbl.replace inbound_cnt key
        (1 + Option.value (Hashtbl.find_opt inbound_cnt key) ~default:0))
    xa;
  let is_initial c v = List.mem v s.chunks.(c).Schedule.initial in
  (* need.(x).(b): remaining data inputs before block b may be injected;
     avail.(x).(b): accumulated availability (max of arrivals for reduce). *)
  let need = Array.map (fun (x : Schedule.xfer) ->
      let c = s.chunks.(x.chunk) in
      let inb = Option.value (Hashtbl.find_opt inbound_cnt (x.chunk, x.src)) ~default:0 in
      let per_block =
        match c.mode with
        | `Gather -> if is_initial x.chunk x.src then 0 else min 1 inb
        | `Reduce -> inb
      in
      Array.make nblocks.(x.chunk) per_block)
      xa
  in
  let avail = Array.map (fun (x : Schedule.xfer) -> Array.make nblocks.(x.chunk) 0.0) xa in
  let started = Array.map (fun (x : Schedule.xfer) -> Array.make nblocks.(x.chunk) false) xa in
  let queue =
    Pqueue.create ~cmp:(fun a b ->
        let c = Float.compare a.avail b.avail in
        if c <> 0 then c
        else
          let c = compare a.prio b.prio in
          if c <> 0 then c
          else
            let c = compare a.xid b.xid in
            if c <> 0 then c else compare a.block b.block)
  in
  let push_ready xid block =
    if not started.(xid).(block) then begin
      started.(xid).(block) <- true;
      Pqueue.push queue
        { avail = avail.(xid).(block); prio = xa.(xid).prio; xid; block }
    end
  in
  (* Seed: blocks whose source is ready at time 0. *)
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let c = s.chunks.(x.chunk) in
      let ready =
        match c.mode with
        | `Gather -> is_initial x.chunk x.src
        | `Reduce -> need.(i).(0) = 0 && is_initial x.chunk x.src
      in
      if ready then
        for b = 0 to nblocks.(x.chunk) - 1 do
          push_ready i b
        done)
    xa;
  (* Port state: one egress and one ingress per (GPU, port group). *)
  let npg =
    1
    + Array.fold_left
        (fun acc d -> max acc d.Topology.port_group)
        0
        (Array.init (Topology.num_dims topo) (fun d -> Topology.dim topo d))
  in
  let n = Topology.num_gpus topo in
  let egress = Array.make (n * npg) 0.0 in
  let ingress = Array.make (n * npg) 0.0 in
  let xfer_finish = Array.make nx 0.0 in
  let blocks_done = Array.make nx 0 in
  let events = ref 0 in
  let makespan = ref 0.0 in
  let on_arrival xid block t_arr =
    let x = xa.(xid) in
    blocks_done.(xid) <- blocks_done.(xid) + 1;
    xfer_finish.(xid) <- Float.max xfer_finish.(xid) t_arr;
    if t_arr > !makespan then makespan := t_arr;
    (* Wake dependents of (chunk, dst). *)
    match Hashtbl.find_opt dependents (x.chunk, x.dst) with
    | None -> ()
    | Some deps ->
        List.iter
          (fun d ->
            let nb = nblocks.(xa.(d).chunk) in
            if block < nb then begin
              if need.(d).(block) > 0 then begin
                need.(d).(block) <- need.(d).(block) - 1;
                avail.(d).(block) <- Float.max avail.(d).(block) t_arr;
                if need.(d).(block) = 0 then push_ready d block
              end
            end)
          deps
  in
  (* A block binds its ports only when it can start at its availability
     time.  Binding at pop time would couple unrelated ports: an egress
     waiting on a busy remote ingress would block every later send from that
     egress — head-of-line blocking the hardware does not have.  Blocks that
     cannot start park in a per-port waiting queue; each port keeps at most
     one "promoted" representative in the main queue (scheduled at the
     port's free time), so wake-ups stay linear in the number of binds. *)
  let nports = 2 * n * npg in
  (* Ports are numbered: egress = 2*(gpu*npg+pg), ingress = that + 1. *)
  let port_free p =
    if p land 1 = 0 then egress.(p lsr 1) else ingress.(p lsr 1)
  in
  let entry_cmp a b =
    let c = Float.compare a.avail b.avail in
    if c <> 0 then c
    else
      let c = compare a.prio b.prio in
      if c <> 0 then c
      else
        let c = compare a.xid b.xid in
        if c <> 0 then c else compare a.block b.block
  in
  (* Timeline export: every executed block becomes one span on the egress
     port's track and one on the ingress port's track (virtual simulated
     time), so the schedule renders as a link-occupancy Gantt chart in
     Perfetto.  Tracks are numbered by port id and named on first use. *)
  let tracing =
    match trace_pid with
    | Some pid when Trace.enabled () -> Some pid
    | _ -> None
  in
  let port_seen = Array.make nports false in
  let mark_port pid p =
    if not port_seen.(p) then begin
      port_seen.(p) <- true;
      let gp = p lsr 1 in
      Trace.set_track_name ~pid ~tid:p ~sort_index:p
        (Printf.sprintf "gpu%d pg%d %s" (gp / npg) (gp mod npg)
           (if p land 1 = 0 then "out" else "in"))
    end
  in
  let trace_block e (x : Schedule.xfer) ~egp ~igp ~start ~busy =
    match tracing with
    | None -> ()
    | Some pid ->
        mark_port pid egp;
        mark_port pid igp;
        let name = Printf.sprintf "c%d.b%d %d>%d" x.chunk e.block x.src x.dst in
        let args =
          [
            ("xfer", string_of_int e.xid);
            ("chunk", string_of_int x.chunk);
            ("block", string_of_int e.block);
            ("src", string_of_int x.src);
            ("dst", string_of_int x.dst);
            ("dim", string_of_int x.dim);
          ]
        in
        Trace.emit ~pid ~tid:egp ~cat:"sim" ~args ~name ~ts:start ~dur:busy ();
        Trace.emit ~pid ~tid:igp ~cat:"sim" ~args ~name ~ts:start ~dur:busy ()
  in
  let waiters = Array.init nports (fun _ -> Pqueue.create ~cmp:entry_cmp) in
  let promoted = Array.make nports false in
  (* Which port a promoted entry represents, keyed by (xid, block). *)
  let rep_of = Hashtbl.create 64 in
  let promote p =
    if not promoted.(p) then
      match Pqueue.pop waiters.(p) with
      | None -> ()
      | Some w ->
          promoted.(p) <- true;
          Hashtbl.replace rep_of (w.xid, w.block) p;
          Pqueue.push queue { w with avail = Float.max w.avail (port_free p) }
  in
  let release_rep e =
    match Hashtbl.find_opt rep_of (e.xid, e.block) with
    | None -> ()
    | Some p ->
        Hashtbl.remove rep_of (e.xid, e.block);
        promoted.(p) <- false
  in
  let total_blocks =
    Array.fold_left (fun a (x : Schedule.xfer) -> a + nblocks.(x.chunk)) 0 xa
  in
  let event_cap = 64 + (32 * total_blocks) in
  let pops = ref 0 in
  let rec loop () =
    match Pqueue.pop queue with
    | None -> ()
    | Some e ->
        incr pops;
        if !pops > event_cap then
          failwith "Sim.run: event cap exceeded";
        let was_rep = Hashtbl.find_opt rep_of (e.xid, e.block) in
        release_rep e;
        let x = xa.(e.xid) in
        let d = Topology.dim topo x.dim in
        let pg = d.Topology.port_group in
        let link = d.Topology.link in
        let sb =
          s.chunks.(x.chunk).Schedule.size /. float_of_int nblocks.(x.chunk)
        in
        let egp = 2 * ((x.src * npg) + pg) in
        let igp = (2 * ((x.dst * npg) + pg)) + 1 in
        let eg_free = port_free egp and ig_free = port_free igp in
        let blocked = Float.max eg_free ig_free in
        if blocked > e.avail +. 1e-15 then begin
          (* Park on the later-free port; keep that port's pipeline primed. *)
          let p = if eg_free >= ig_free then egp else igp in
          Pqueue.push waiters.(p) e;
          promote p;
          (match was_rep with Some old when old <> p -> promote old | _ -> ());
          loop ()
        end
        else begin
          incr events;
          let start = e.avail in
          let busy = Syccl_topology.Link.busy_time link sb in
          egress.(egp lsr 1) <- start +. busy;
          ingress.(igp lsr 1) <- start +. busy;
          trace_block e x ~egp ~igp ~start ~busy;
          let arrival = start +. Syccl_topology.Link.transfer_time link sb in
          on_arrival e.xid e.block arrival;
          promote egp;
          promote igp;
          loop ()
        end
  in
  loop ();
  (* Every block of every transfer must have run, else the schedule
     deadlocked (a relay never received its data). *)
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      if blocks_done.(i) <> nblocks.(x.chunk) then
        failwith
          (Printf.sprintf "Sim.run: deadlock, transfer %d (chunk %d, %d->%d) incomplete"
             i x.chunk x.src x.dst))
    xa;
  { time = !makespan; events = !events; xfer_finish }

let time ?blocks topo s = (run ?blocks topo s).time
