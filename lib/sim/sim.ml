module Topology = Syccl_topology.Topology
module Link = Syccl_topology.Link
module Trace = Syccl_util.Trace
module Counters = Syccl_util.Counters
module Clock = Syccl_util.Clock

type report = { time : float; events : int; xfer_finish : float array }

let c_runs = Counters.int_counter "sim.runs"
let c_events = Counters.int_counter "sim.events"
let c_pops = Counters.int_counter "sim.pops"
let h_run_s = Counters.histogram "sim.run_s"

(* Min-heap of block entries keyed by (avail, key).  An entry is one block
   whose data dependency has resolved: [avail] is when its source can first
   inject it; [key] packs its block slot (numbered in (prio, transfer,
   block) order, see [simulate]) above the port it was promoted for.  Slots
   are distinct — a block sits in at most one heap at a time — so the key
   is a total order over a heap's contents and any correct heap pops the
   same sequence. *)
module Heap = struct
  type t = {
    mutable avail : float array;
    mutable key : int array;
    mutable size : int;
  }

  let create () = { avail = [||]; key = [||]; size = 0 }

  (* Float.compare's order (NaN first), the common cases decided by plain
     float comparisons. *)
  let[@inline] before (a : float) (k : int) (a' : float) (k' : int) =
    if a < a' then true
    else if a > a' then false
    else if a = a' then k < k'
    else
      let c = Float.compare a a' in
      c < 0 || (c = 0 && k < k')

  let grow h =
    let cap = max 16 (2 * h.size) in
    let avail = Array.make cap 0.0 and key = Array.make cap 0 in
    Array.blit h.avail 0 avail 0 h.size;
    Array.blit h.key 0 key 0 h.size;
    h.avail <- avail;
    h.key <- key

  let push h a k =
    if h.size = Array.length h.key then grow h;
    let av = h.avail and ky = h.key in
    let i = ref h.size in
    h.size <- h.size + 1;
    let up = ref true in
    while !up && !i > 0 do
      let parent = (!i - 1) lsr 1 in
      if before a k av.(parent) ky.(parent) then begin
        av.(!i) <- av.(parent);
        ky.(!i) <- ky.(parent);
        i := parent
      end
      else up := false
    done;
    av.(!i) <- a;
    ky.(!i) <- k

  (* Remove the minimum (read it first at index 0). *)
  let drop_top h =
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      let av = h.avail and ky = h.key in
      let a = av.(n) and k = ky.(n) in
      let i = ref 0 in
      let down = ref true in
      while !down do
        let l = (2 * !i) + 1 in
        if l >= n then down := false
        else begin
          let c =
            if l + 1 < n && before av.(l + 1) ky.(l + 1) av.(l) ky.(l) then l + 1
            else l
          in
          if before av.(c) ky.(c) a k then begin
            av.(!i) <- av.(c);
            ky.(!i) <- ky.(c);
            i := c
          end
          else down := false
        end
      done;
      av.(!i) <- a;
      ky.(!i) <- k
    end
end

(* Port groups per GPU; a GPU's ports are numbered egress = 2*(gpu*npg+pg),
   ingress = that + 1. *)
let port_groups topo =
  1
  + List.fold_left
      (fun acc d -> max acc (Topology.dim topo d).Topology.port_group)
      0
      (List.init (Topology.num_dims topo) Fun.id)

(* Timeline export state: the trace pid, the events still allowed, and the
   events cut once none are. *)
type timeline = { pid : int; mutable room : int; mutable cut : int }

let simulate ~blocks ?timeline topo (s : Schedule.t) =
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
  (* Endpoints are valid GPU ids from here on: group_of indexed them. *)
  let n = Topology.num_gpus topo in
  let dims = Array.init (Topology.num_dims topo) (Topology.dim topo) in
  let npg = port_groups topo in
  (* Per-chunk block count (pipelining never splits below one byte) and
     block size. *)
  let nblocks =
    Array.map
      (fun (c : Schedule.chunk_meta) ->
        max 1 (min blocks (int_of_float c.size)))
      s.chunks
  in
  let block_size =
    Array.mapi
      (fun c (m : Schedule.chunk_meta) -> m.size /. float_of_int nblocks.(c))
      s.chunks
  in
  (* Transfers bucketed by chunk (stable counting sort). *)
  let cstart = Array.make (nc + 1) 0 in
  Array.iter
    (fun (x : Schedule.xfer) -> cstart.(x.chunk + 1) <- cstart.(x.chunk + 1) + 1)
    xa;
  for c = 1 to nc do
    cstart.(c) <- cstart.(c) + cstart.(c - 1)
  done;
  let by_chunk = Array.make nx 0 in
  let fill = Array.sub cstart 0 nc in
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      by_chunk.(fill.(x.chunk)) <- i;
      fill.(x.chunk) <- fill.(x.chunk) + 1)
    xa;
  (* Number every (chunk, GPU) pair a transfer touches, and note which
     transfers leave a GPU that initially holds their chunk. *)
  let stamp = Array.make n (-1) and kid = Array.make n 0 in
  let held = Array.make n (-1) in
  let src_key = Array.make nx 0 and dst_key = Array.make nx 0 in
  let is_initial = Array.make nx false in
  let nkeys = ref 0 in
  for c = 0 to nc - 1 do
    List.iter
      (fun v -> if v >= 0 && v < n then held.(v) <- c)
      s.chunks.(c).Schedule.initial;
    let key v =
      if stamp.(v) <> c then begin
        stamp.(v) <- c;
        kid.(v) <- !nkeys;
        incr nkeys
      end;
      kid.(v)
    in
    for k = cstart.(c) to cstart.(c + 1) - 1 do
      let i = by_chunk.(k) in
      let x = xa.(i) in
      src_key.(i) <- key x.src;
      dst_key.(i) <- key x.dst;
      is_initial.(i) <- held.(x.src) = c
    done
  done;
  let nk = !nkeys in
  (* Inbound transfers per (chunk, GPU), and dependents (transfers of chunk
     c leaving GPU v) as a CSR over the same keys. *)
  let inbound = Array.make nk 0 in
  Array.iter (fun k -> inbound.(k) <- inbound.(k) + 1) dst_key;
  let dstart = Array.make (nk + 1) 0 in
  Array.iter (fun k -> dstart.(k + 1) <- dstart.(k + 1) + 1) src_key;
  for k = 1 to nk do
    dstart.(k) <- dstart.(k) + dstart.(k - 1)
  done;
  let deps = Array.make nx 0 in
  let dfill = Array.sub dstart 0 nk in
  Array.iteri
    (fun i k ->
      deps.(dfill.(k)) <- i;
      dfill.(k) <- dfill.(k) + 1)
    src_key;
  (* Global block slots: transfer i owns [boff.(i), boff.(i) + nb.(i)),
     numbered in (prio, transfer, block) order so that comparing slots is
     comparing the queue's tie-breaks. *)
  let nb = Array.map (fun (x : Schedule.xfer) -> nblocks.(x.chunk)) xa in
  let by_prio = Array.init nx Fun.id in
  Array.stable_sort
    (fun i j -> compare xa.(i).Schedule.prio xa.(j).Schedule.prio)
    by_prio;
  let boff = Array.make nx 0 in
  let total_blocks =
    Array.fold_left
      (fun next i ->
        boff.(i) <- next;
        next + nb.(i))
      0 by_prio
  in
  let slot_xid = Array.make total_blocks 0 in
  for i = 0 to nx - 1 do
    Array.fill slot_xid boff.(i) nb.(i) i
  done;
  (* Per-transfer ports (egress = 2*(gpu*npg+pg) on the source, ingress =
     that + 1 on the destination), per-block port occupancy and landing
     delay. *)
  let egp = Array.make nx 0 and igp = Array.make nx 0 in
  let busy = Array.make nx 0.0 and latency = Array.make nx 0.0 in
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let d = dims.(x.dim) in
      let pg = d.Topology.port_group in
      egp.(i) <- 2 * ((x.src * npg) + pg);
      igp.(i) <- (2 * ((x.dst * npg) + pg)) + 1;
      let sb = block_size.(x.chunk) in
      busy.(i) <- Link.busy_time d.Topology.link sb;
      latency.(i) <- Link.transfer_time d.Topology.link sb)
    xa;
  (* need: remaining data inputs before a block may be injected;
     avail: accumulated availability (max of arrivals for reduce). *)
  let need = Array.make total_blocks 0 in
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let inb = inbound.(src_key.(i)) in
      let per_block =
        match s.chunks.(x.chunk).Schedule.mode with
        | `Gather -> if is_initial.(i) then 0 else min 1 inb
        | `Reduce -> inb
      in
      Array.fill need boff.(i) nb.(i) per_block)
    xa;
  let avail = Array.make total_blocks 0.0 in
  let started = Bytes.make total_blocks '\000' in
  let queue = Heap.create () in
  (* A heap key is [slot * stride + rep + 1], [rep] being the port a
     promoted entry represents, or -1. *)
  let nports = 2 * n * npg in
  let stride = nports + 1 in
  let push_ready slot =
    if Bytes.unsafe_get started slot = '\000' then begin
      Bytes.unsafe_set started slot '\001';
      Heap.push queue avail.(slot) (slot * stride)
    end
  in
  (* Seed: blocks whose source is ready at time 0. *)
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let ready =
        match s.chunks.(x.chunk).Schedule.mode with
        | `Gather -> is_initial.(i)
        | `Reduce -> need.(boff.(i)) = 0 && is_initial.(i)
      in
      if ready then
        for slot = boff.(i) to boff.(i) + nb.(i) - 1 do
          push_ready slot
        done)
    xa;
  (* Port state, indexed by port id: when each port is next free. *)
  let free = Array.make nports 0.0 in
  let xfer_finish = Array.make nx 0.0 in
  let blocks_done = Array.make nx 0 in
  let events = ref 0 in
  let makespan = ref 0.0 in
  let on_arrival xid block t_arr =
    blocks_done.(xid) <- blocks_done.(xid) + 1;
    xfer_finish.(xid) <- Float.max xfer_finish.(xid) t_arr;
    if t_arr > !makespan then makespan := t_arr;
    (* Wake dependents of (chunk, dst). *)
    let k = dst_key.(xid) in
    for j = dstart.(k) to dstart.(k + 1) - 1 do
      let d = deps.(j) in
      if block < nb.(d) then begin
        let slot = boff.(d) + block in
        if need.(slot) > 0 then begin
          need.(slot) <- need.(slot) - 1;
          avail.(slot) <- Float.max avail.(slot) t_arr;
          if need.(slot) = 0 then push_ready slot
        end
      end
    done
  in
  (* Timeline export: every executed block becomes one span on the egress
     port's track and one on the ingress port's track (virtual simulated
     time), so the schedule renders as a link-occupancy Gantt chart in
     Perfetto.  Tracks are numbered by port id and named on first use. *)
  let tracing =
    match timeline with Some t when Trace.enabled () -> Some t | _ -> None
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
  let trace_block pid xid block ~start =
    let x = xa.(xid) and e = egp.(xid) and i = igp.(xid) in
    mark_port pid e;
    mark_port pid i;
    let name = Printf.sprintf "c%d.b%d %d>%d" x.chunk block x.src x.dst in
    let args =
      [
        ("xfer", string_of_int xid);
        ("chunk", string_of_int x.chunk);
        ("block", string_of_int block);
        ("src", string_of_int x.src);
        ("dst", string_of_int x.dst);
        ("dim", string_of_int x.dim);
      ]
    in
    Trace.emit ~pid ~tid:e ~cat:"sim" ~args ~name ~ts:start ~dur:busy.(xid) ();
    Trace.emit ~pid ~tid:i ~cat:"sim" ~args ~name ~ts:start ~dur:busy.(xid) ()
  in
  (* A block binds its ports only when it can start at its availability
     time.  Binding at pop time would couple unrelated ports: an egress
     waiting on a busy remote ingress would block every later send from that
     egress — head-of-line blocking the hardware does not have.  Blocks that
     cannot start park in a per-port waiting queue; each port keeps at most
     one "promoted" representative in the main queue (scheduled at the
     port's free time, carrying the port in its heap key), so wake-ups stay
     linear in the number of binds. *)
  let waiters = Array.init nports (fun _ -> Heap.create ()) in
  let promoted = Bytes.make nports '\000' in
  let promote p =
    let w = waiters.(p) in
    if Bytes.unsafe_get promoted p = '\000' && w.Heap.size > 0 then begin
      let a = w.Heap.avail.(0) and k = w.Heap.key.(0) in
      Heap.drop_top w;
      Bytes.unsafe_set promoted p '\001';
      Heap.push queue (Float.max a free.(p)) (k + p + 1)
    end
  in
  let event_cap = 64 + (32 * total_blocks) in
  let pops = ref 0 in
  let capped = ref false in
  while queue.Heap.size > 0 && not !capped do
    incr pops;
    if !pops > event_cap then capped := true
    else begin
      let a = queue.Heap.avail.(0) and k = queue.Heap.key.(0) in
      Heap.drop_top queue;
      let slot = k / stride and rep = (k mod stride) - 1 in
      if rep >= 0 then Bytes.unsafe_set promoted rep '\000';
      let xid = slot_xid.(slot) in
      let e = egp.(xid) and i = igp.(xid) in
      let eg_free = free.(e) and ig_free = free.(i) in
      if Float.max eg_free ig_free > a +. 1e-15 then begin
        (* Park on the later-free port; keep that port's pipeline primed. *)
        let p = if eg_free >= ig_free then e else i in
        Heap.push waiters.(p) a (slot * stride);
        promote p;
        if rep >= 0 && rep <> p then promote rep
      end
      else begin
        incr events;
        let block = slot - boff.(xid) in
        free.(e) <- a +. busy.(xid);
        free.(i) <- a +. busy.(xid);
        (match tracing with
        | None -> ()
        | Some t ->
            (* A block's egress and ingress spans go in together or not
               at all. *)
            if t.room >= 2 then begin
              t.room <- t.room - 2;
              trace_block t.pid xid block ~start:a
            end
            else t.cut <- t.cut + 2);
        on_arrival xid block (a +. latency.(xid));
        promote e;
        promote i
      end
    end
  done;
  ignore (Atomic.fetch_and_add c_pops !pops);
  ignore (Atomic.fetch_and_add c_events !events);
  if !capped then failwith "Sim.run: event cap exceeded";
  (* Every block of every transfer must have run, else the schedule
     deadlocked (a relay never received its data). *)
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      if blocks_done.(i) <> nb.(i) then
        failwith
          (Printf.sprintf "Sim.run: deadlock, transfer %d (chunk %d, %d->%d) incomplete"
             i x.chunk x.src x.dst))
    xa;
  { time = !makespan; events = !events; xfer_finish }

let run_with ?(blocks = 8) ?timeline topo s =
  Syccl_util.Faultpoint.inject "sim.crash";
  Atomic.incr c_runs;
  Trace.with_span ~cat:"sim" "sim.run" @@ fun () ->
  let t0 = Clock.now () in
  Fun.protect
    ~finally:(fun () -> Counters.record h_run_s (Clock.elapsed t0))
    (fun () -> simulate ~blocks ?timeline topo s)

let run ?blocks topo s = run_with ?blocks topo s

let timeline ?blocks ~pid ?(limit = max_int) topo s =
  let t = { pid; room = limit; cut = 0 } in
  let r = run_with ?blocks ~timeline:t topo s in
  (r, t.cut)

let time ?blocks topo s = (run ?blocks topo s).time

(* Every block holds its egress and ingress port for β·block_size, blocks
   on one port never overlap by more than the 1e-15 s start tolerance,
   and a block lands α after its port frees.  So the makespan is at least
   any port's total busy time, less that tolerance per block and any
   negative α.  The relative 1e-9 margin absorbs the rounding difference
   between Σ β·size and the simulator's running sums of β·block_size. *)
let lower_bound ?(blocks = 8) topo (s : Schedule.t) =
  let npg = port_groups topo in
  let load = Array.make (2 * Topology.num_gpus topo * npg) 0.0 in
  let min_alpha = ref 0.0 and nblocks = ref 0 in
  List.iter
    (fun (x : Schedule.xfer) ->
      let d = Topology.dim topo x.dim in
      let link = d.Topology.link in
      let size = s.chunks.(x.chunk).Schedule.size in
      let b = Link.busy_time link size in
      let e = 2 * ((x.src * npg) + d.Topology.port_group) in
      let i = (2 * ((x.dst * npg) + d.Topology.port_group)) + 1 in
      load.(e) <- load.(e) +. b;
      load.(i) <- load.(i) +. b;
      min_alpha := Float.min !min_alpha link.Link.alpha;
      nblocks := !nblocks + max 1 (min blocks (int_of_float size)))
    s.xfers;
  let busiest = Array.fold_left Float.max 0.0 load in
  (busiest *. (1.0 -. 1e-9)) -. (float_of_int !nblocks *. 1e-15) +. !min_alpha
