(** Span tracing into per-domain ring buffers, exportable as Chrome
    trace-event JSON (loadable in Perfetto / chrome://tracing) or JSONL.

    Tracing is off by default: {!with_span} and {!emit} cost one [Atomic]
    load when disabled, so instrumentation can stay in hot paths.  When
    enabled, each domain appends completed spans to its own fixed-capacity
    ring buffer (single writer, no lock); when a ring wraps, the oldest
    events are overwritten and counted in {!dropped}.

    Events live on (pid, tid) {e tracks}.  Wall-clock spans recorded by
    {!with_span} use {!synthesis_pid} and the recording domain's id as the
    track, so nesting follows the call stack.  Virtual-time events (the
    simulator's link-occupancy timeline) are emitted with {!emit} onto
    caller-chosen tracks under a different pid; {!set_track_name} /
    {!set_process_name} attach human-readable labels.

    Export ({!events}, {!to_chrome_json}, …) reads every domain's ring
    without synchronizing with writers; call it only while tracing writers
    are quiescent (after the traced region completed), or accept that a
    handful of concurrent events may be torn or missed. *)

type event = {
  pid : int;  (** process-id track group (a timeline section in Perfetto) *)
  tid : int;  (** track within the pid: domain id, or a simulator port *)
  name : string;
  cat : string;
  ts : float;  (** start, seconds since the trace epoch (or virtual time) *)
  dur : float;  (** duration in seconds; negative marks an instant event *)
  args : (string * string) list;
}

val synthesis_pid : int
(** Track group for wall-clock synthesis spans (one track per domain). *)

val sim_pid : int
(** Default track group for simulator timelines (one track per port). *)

val enable : ?capacity:int -> unit -> unit
(** Start a fresh trace: drop previously recorded events, re-arm the epoch
    and turn recording on.  [capacity] (default 65536, clamped to at least
    16) sizes each {e per-domain} ring created from now on; rings already
    created keep their size. *)

val disable : unit -> unit
(** Stop recording.  Already-recorded events remain exportable. *)

val enabled : unit -> bool

val free_slots : unit -> int
(** Events the calling domain's ring still takes before it wraps and
    starts overwriting its oldest events.  Bulk emitters (a simulator
    timeline pushed after synthesis) cap themselves at this so they never
    evict the spans recorded before them. *)

val clear : unit -> unit
(** Drop all recorded events and reset {!dropped} without toggling the
    enabled flag. *)

val now : unit -> float
(** Seconds since the trace epoch (monotonicized wall clock), for building
    manual [ts] values consistent with {!with_span}. *)

val with_span :
  ?pid:int -> ?cat:string -> ?args:(string * string) list ->
  string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] and, when tracing is enabled, records a
    complete span covering its execution on the current domain's track.
    The span is recorded even when [f] raises.  [cat] defaults to
    ["synth"]. *)

val instant :
  ?pid:int -> ?args:(string * string) list -> string -> unit
(** Record a zero-duration instant event on the current domain's track. *)

val emit :
  pid:int -> tid:int -> ?cat:string -> ?args:(string * string) list ->
  name:string -> ts:float -> dur:float -> unit -> unit
(** Record a fully explicit event (e.g. virtual-time simulator spans) into
    the calling domain's ring.  No-op when tracing is disabled. *)

val set_process_name : pid:int -> string -> unit
(** Label a pid's section in the exported trace. *)

val set_track_name : pid:int -> tid:int -> ?sort_index:int -> string -> unit
(** Label (and optionally order) one track in the exported trace. *)

val events : unit -> event list
(** All retained events from every domain's ring, sorted by [ts] (ties by
    pid, tid). *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around since the last {!enable} /
    {!clear}. *)

val to_chrome_json : unit -> Json.t
(** The trace as a Chrome trace-event JSON object
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]: one ["X"] (complete)
    or ["i"] (instant) event per retained span plus ["M"] metadata records
    for registered process/track names.  Timestamps are exported in
    microseconds, as the format requires. *)

val to_chrome_string : unit -> string

val to_jsonl : unit -> string
(** One JSON object per line per event (no metadata records). *)

val export_file : string -> unit
(** Write {!to_chrome_string} to a file. *)
