(** Cross-run registry of armed injectors for end-of-invocation
    reporting.

    Workload runs publish their machine's injector (labelled by run)
    after completion; the CLI drains once per invocation and prints
    one [fault:] line per run plus a [degraded:] summary. Disarmed
    injectors are ignored so faults-off runs publish nothing. Runs are
    sorted for deterministic output under the parallel pool. *)

val publish : label:string -> Injector.t -> unit
(** Record one run's injector. No-op when the injector is disarmed. *)

val drain : unit -> (string * Injector.t) list
(** All published injectors since the last drain, sorted by label and
    then by their counts, so the order does not depend on which pool
    domain finished first. Clears the registry. *)

val pending : unit -> int
(** Number of published-but-undrained injectors (for tests). *)
