(** Cross-run collection of completed recorders.

    Workload drivers publish their machine's recorder here when a run
    finishes; after all experiments are joined, the CLI drains the
    registry once to build the trace file and metrics table. Publication
    happens at most once per simulated machine (cold path), so the
    mutex guarding the registry is uncontended in practice — the hot
    paths stay inside per-task recorders and need no locking. *)

val publish : label:string -> Recorder.t -> unit
(** [publish ~label r] registers a completed recorder under a
    human-readable run label (workload name plus distinguishing
    parameters). Disabled recorders are ignored, so callers may publish
    unconditionally. Thread/domain-safe. *)

val drain : unit -> (string * Recorder.t) list
(** Remove and return everything published so far, sorted by label,
    then by counters (two runs may share a label). Labels double as
    trace "process" names, so the sort makes sink output deterministic
    for a deterministic set of runs regardless of which pool domain ran
    which task. *)

val pending : unit -> int
(** Number of published, not-yet-drained recorders. *)
