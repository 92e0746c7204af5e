(* Per-domain ring-buffer span recorder.

   Each domain owns one ring (single writer, no lock); the global registry
   only serializes ring creation and export.  The disabled path is a single
   Atomic load so call sites can stay in hot loops.  A generation counter
   implements [clear] without touching other domains' rings: a ring whose
   generation is stale logically holds no events, and the owner resets it
   on its next write. *)

type event = {
  pid : int;
  tid : int;
  name : string;
  cat : string;
  ts : float;
  dur : float;
  args : (string * string) list;
}

let synthesis_pid = 1
let sim_pid = 2

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let epoch = Atomic.make 0.0
let generation = Atomic.make 0
let default_capacity = Atomic.make 65536
let dropped_count = Atomic.make 0

let dummy_event =
  { pid = 0; tid = 0; name = ""; cat = ""; ts = 0.0; dur = 0.0; args = [] }

type ring = {
  buf : event array;
  mutable written : int;  (* total events ever written this generation *)
  mutable gen : int;
}

let registry : ring list ref = ref []
let reg_lock = Mutex.create ()

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_ring () =
  let slot = Domain.DLS.get ring_key in
  match !slot with
  | Some r -> r
  | None ->
      let r =
        {
          buf = Array.make (max 16 (Atomic.get default_capacity)) dummy_event;
          written = 0;
          gen = Atomic.get generation;
        }
      in
      slot := Some r;
      Mutex.lock reg_lock;
      registry := r :: !registry;
      Mutex.unlock reg_lock;
      r

let push r e =
  let g = Atomic.get generation in
  if r.gen <> g then begin
    r.gen <- g;
    r.written <- 0
  end;
  let cap = Array.length r.buf in
  if r.written >= cap then Atomic.incr dropped_count;
  r.buf.(r.written mod cap) <- e;
  r.written <- r.written + 1

let emit ~pid ~tid ?(cat = "synth") ?(args = []) ~name ~ts ~dur () =
  if Atomic.get enabled_flag then
    push (my_ring ()) { pid; tid; name; cat; ts; dur; args }

let clear () =
  Atomic.incr generation;
  Atomic.set dropped_count 0

let enable ?capacity () =
  (match capacity with Some c -> Atomic.set default_capacity (max 16 c) | None -> ());
  clear ();
  Atomic.set epoch (Clock.now ());
  Atomic.set enabled_flag true

let free_slots () =
  let cap r = Array.length r.buf in
  match !(Domain.DLS.get ring_key) with
  | None -> max 16 (Atomic.get default_capacity)
  | Some r when r.gen <> Atomic.get generation -> cap r
  | Some r -> max 0 (cap r - r.written)

let disable () = Atomic.set enabled_flag false
let now () = Clock.now () -. Atomic.get epoch
let dropped () = Atomic.get dropped_count

let domain_tid () = (Domain.self () :> int)

let with_span ?(pid = synthesis_pid) ?(cat = "synth") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now () in
        let e0 = Atomic.get epoch in
        emit ~pid ~tid:(domain_tid ()) ~cat ~args ~name ~ts:(t0 -. e0)
          ~dur:(t1 -. t0) ())
      f
  end

let instant ?(pid = synthesis_pid) ?(args = []) name =
  if Atomic.get enabled_flag then
    emit ~pid ~tid:(domain_tid ()) ~cat:"instant" ~args ~name ~ts:(now ())
      ~dur:(-1.0) ()

(* --- track naming ------------------------------------------------------- *)

let names_lock = Mutex.create ()
let process_names : (int, string) Hashtbl.t = Hashtbl.create 4
let track_names : (int * int, string * int option) Hashtbl.t = Hashtbl.create 32

let set_process_name ~pid name =
  Mutex.lock names_lock;
  Hashtbl.replace process_names pid name;
  Mutex.unlock names_lock

let set_track_name ~pid ~tid ?sort_index name =
  Mutex.lock names_lock;
  Hashtbl.replace track_names (pid, tid) (name, sort_index);
  Mutex.unlock names_lock

(* --- export ------------------------------------------------------------- *)

let ring_events r =
  if r.gen <> Atomic.get generation then []
  else begin
    let cap = Array.length r.buf in
    let n = min r.written cap in
    let first = if r.written <= cap then 0 else r.written mod cap in
    List.init n (fun i -> r.buf.((first + i) mod cap))
  end

let events () =
  Mutex.lock reg_lock;
  let rings = !registry in
  Mutex.unlock reg_lock;
  List.concat_map ring_events rings
  |> List.sort (fun a b ->
         let c = Float.compare a.ts b.ts in
         if c <> 0 then c
         else
           let c = compare a.pid b.pid in
           if c <> 0 then c else compare a.tid b.tid)

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)

let event_json e =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("pid", Json.Num (float_of_int e.pid));
      ("tid", Json.Num (float_of_int e.tid));
      ("ts", Json.Num (e.ts *. 1e6));
    ]
  in
  let shape =
    if e.dur < 0.0 then [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
    else [ ("ph", Json.Str "X"); ("dur", Json.Num (e.dur *. 1e6)) ]
  in
  let args = if e.args = [] then [] else [ ("args", args_json e.args) ] in
  Json.Obj (base @ shape @ args)

let metadata_json () =
  Mutex.lock names_lock;
  let procs = Hashtbl.fold (fun pid n acc -> (pid, n) :: acc) process_names [] in
  let tracks =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) track_names []
  in
  Mutex.unlock names_lock;
  let meta ~pid ?tid name args =
    Json.Obj
      ([ ("name", Json.Str name); ("ph", Json.Str "M");
         ("pid", Json.Num (float_of_int pid)) ]
      @ (match tid with
        | Some t -> [ ("tid", Json.Num (float_of_int t)) ]
        | None -> [])
      @ [ ("args", Json.Obj args) ])
  in
  List.map
    (fun (pid, n) -> meta ~pid "process_name" [ ("name", Json.Str n) ])
    (List.sort compare procs)
  @ List.concat_map
      (fun ((pid, tid), (n, sort)) ->
        meta ~pid ~tid "thread_name" [ ("name", Json.Str n) ]
        ::
        (match sort with
        | Some s ->
            [ meta ~pid ~tid "thread_sort_index"
                [ ("sort_index", Json.Num (float_of_int s)) ] ]
        | None -> []))
      (List.sort compare tracks)

let to_chrome_json () =
  Json.Obj
    [
      ("traceEvents",
       Json.List (metadata_json () @ List.map event_json (events ())));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_chrome_string () = Json.to_string (to_chrome_json ())

let to_jsonl () =
  String.concat ""
    (List.map (fun e -> Json.to_string (event_json e) ^ "\n") (events ()))

let export_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_string ()))
