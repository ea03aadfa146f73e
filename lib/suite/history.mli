(** The per-session result history: what turns the experiment registry
    from a one-shot tool into a continuous-benchmarking system.

    Every [mallocbench experiment --history FILE] run gets a session
    id; its per-cell results (host ns/run, host GC minor words/run,
    selected simulation counters) and the registry's wall clock append
    to a JSON history file together with a schema version and a host
    block. The
    {!Report} module renders cross-session trend tables from the file
    and the {!Gate} module fails CI when the newest session regresses
    against the recorded trend on the same host. *)

val schema : int
(** Current history schema (1). {!load} rejects files from the
    future; older schemas would be migrated here. *)

type host = { cores : int; cpu_model : string; domains : int }
(** Provenance of a session's wall-clock numbers. ns/run values are
    only comparable between sessions whose host blocks match — the
    gate filters its baseline set on this record, the mode and the
    seed. *)

val current_host : domains:int -> host
(** Cores from [Domain.recommended_domain_count], the cpu model from
    [/proc/cpuinfo] (["unknown"] where that fails). [domains] is the
    pool width the cells were metered at: experiments fan their repeat
    seeds out over the global pool, so their ns/run depends on it. *)

val host_to_string : host -> string
(** One-line canonical rendering for reports and warnings. *)

type cell_data = {
  ok : bool;                          (** experiment checks passed *)
  ns_per_run : float;                 (** host wall clock per execution *)
  minor_words_per_run : float;        (** host GC pressure per execution *)
  counters : (string * int) list;     (** headline simulation counters *)
}

type session = {
  id : string;
  time_s : float;  (** unix epoch seconds at session start *)
  suite : string;
  mode : string;   (** ["quick"] or ["full"] *)
  seed : int;
  host : host;
  wall_s : float option;
      (** wall clock of the printed registry run; [None] in sessions
          recorded before the field existed *)
  cells : (string * cell_data) list;  (** keyed [exp:<id>], registry order *)
}

type t = { sessions : session list }
(** Chronological: oldest first, newest last. *)

val empty : t

val load : string -> (t, string) result
(** Reads a history file. A missing file is [Ok empty] (the first
    session creates it); a malformed or future-schema file is
    [Error]. *)

val append : string -> session -> (t, string) result
(** [append path session] loads [path], appends [session] and
    rewrites the file atomically (write to [path ^ ".tmp"], rename).
    Returns the new history. *)

val save : string -> t -> unit

val generate_id : unit -> string
(** [YYYYMMDD-HHMMSS-PID] (UTC). *)
