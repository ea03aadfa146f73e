(** The experiment registry: every table and figure of the paper, plus
    the ablations and future-work extensions, addressable by id. *)

type runner = Exp_common.opts -> Outcome.t

val paper_artifacts : (string * runner) list
(** In paper order: table1, fig1, fig2, table2, fig3, table3, fig4,
    table4, predictor, fig5..fig8, bench3-baseline, fig9..fig11. *)

val extensions : (string * runner) list
(** ablate-spin, ablate-arenas, ablate-atomics, shootout,
    latency-uptime, trace-replay, slab. *)

val all : (string * runner) list

val find : string -> runner option

val ids : string list

val run_all :
  ?jobs:int -> ?echo:bool -> ?only:string list -> Exp_common.opts -> Outcome.t list
(** Runs (a subset of) the registry, printing each outcome (unless
    [~echo:false]) and returning them in registry order. Raises
    [Invalid_argument] naming the first id in [?only] that the
    registry does not hold.

    Experiments execute on a domain pool: [?jobs] forces a dedicated
    pool of that width for this call; otherwise the global pool is used
    (width [MALLOC_REPRO_JOBS], default
    [Domain.recommended_domain_count ()]). Results and printed output
    are byte-identical for every width — parallelism only changes wall
    clock. *)

val meter : Exp_common.opts -> Outcome.t list -> (string * Mb_suite.History.cell_data) list
(** [meter opts outcomes] prices, one experiment at a time, the
    experiment behind each outcome (looked up by its [id]). Experiments that fan repeat seeds out still use the
    global pool, so ns/run depends on its width. Per experiment: one
    run with metrics armed for the headline counters (heap lock
    traffic, arena churn, foreign frees, coherence invalidations,
    context switches, VM syscalls), which also serves as the warm-up,
    then five runs under wall-clock and [Gc.minor_words] deltas whose
    medians the cell records. The timed runs go in rounds over all the
    given outcomes' experiments. Cells are
    keyed [exp:<id>] in the order given; [ok] is the outcome's own
    verdict. Prints nothing. *)
