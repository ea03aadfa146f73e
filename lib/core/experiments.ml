type runner = Exp_common.opts -> Outcome.t

let paper_artifacts =
  [ ("table1", Exp_bench1.table1);
    ("fig1", Exp_bench1.fig1);
    ("fig2", Exp_bench1.fig2);
    ("table2", Exp_bench1.table2);
    ("fig3", Exp_bench1.fig3);
    ("table3", Exp_bench1.table3);
    ("fig4", Exp_bench1.fig4);
    ("table4", Exp_bench1.table4);
    ("predictor", Exp_bench2.predictor);
    ("fig5", Exp_bench2.fig5);
    ("fig6", Exp_bench2.fig6);
    ("fig7", Exp_bench2.fig7);
    ("fig8", Exp_bench2.fig8);
    ("bench3-baseline", Exp_bench3.single_thread_baseline);
    ("fig9", Exp_bench3.fig9);
    ("fig10", Exp_bench3.fig10);
    ("fig11", Exp_bench3.fig11);
  ]

let extensions =
  [ ("ablate-spin", Exp_extra.ablate_spin);
    ("ablate-arenas", Exp_extra.ablate_arenas);
    ("ablate-atomics", Exp_extra.ablate_atomics);
    ("shootout", Exp_extra.shootout);
    ("latency-uptime", Exp_extra.latency_uptime);
    ("server-knee", Exp_extra.server_knee);
    ("trace-replay", Exp_extra.trace_replay);
    ("slab", Exp_extra.slab_contention);
    ("ablate-bkl", Exp_extra.ablate_bkl);
    ("ablate-fastbins", Exp_extra.ablate_fastbins);
    ("ablate-crowding", Exp_extra.ablate_crowding);
    ("larson", Exp_extra.larson);
    ("ablate-deferred", Exp_extra.ablate_deferred);
  ]

let all = paper_artifacts @ extensions

let find id = List.assoc_opt id all

let ids = List.map fst all

(* Every experiment is an independent deterministic computation, so the
   registry fans out across a domain pool. Futures are joined — and
   outcomes printed — in registry order from the calling domain, which
   makes the output byte-identical for any pool width (including the
   sequential width-1 pool). *)
let run_all ?jobs ?(echo = true) ?only opts =
  let selected =
    match only with
    | None -> all
    | Some wanted -> (
        match List.find_opt (fun id -> not (List.mem_assoc id all)) wanted with
        | Some id -> invalid_arg (Printf.sprintf "Experiments.run_all: unknown experiment id %S" id)
        | None -> List.filter (fun (id, _) -> List.mem id wanted) all)
  in
  let run pool =
    let futures =
      List.map
        (fun (id, runner) -> Mb_parallel.Pool.submit pool ~key:id (fun () -> runner opts))
        selected
    in
    List.map
      (fun future ->
        let outcome = Mb_parallel.Pool.await pool future in
        if echo then Outcome.print outcome;
        outcome)
      futures
  in
  match jobs with
  | Some jobs -> Mb_parallel.Pool.with_pool ~jobs run
  | None -> run (Mb_parallel.Pool.global ())

(* --- session metering ---------------------------------------------------- *)

let headline_counters =
  [ "alloc.mallocs";
    "alloc.lock.acquired";
    "alloc.lock.contended";
    "alloc.arena.created";
    "alloc.free.foreign";
    "cache.invalidations";
    "sched.ctx_switches";
    "vm.sbrk_calls";
    "vm.mmap_calls"
  ]

(* Timed runs per cell; a cell records their median. *)
let timed_runs = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* One experiment at a time, after the registry run: a cell's host time
   must not include another experiment competing for the cores or the
   GC. The timed runs go in rounds over all the experiments, so a spell
   of host load that outlasts one experiment's runs spreads over
   several cells' samples instead of slowing every sample of one. *)
let meter opts outcomes =
  let runs =
    List.map
      (fun (o : Outcome.t) ->
        match find o.Outcome.id with
        | Some runner -> (o, fun () -> ignore (runner opts))
        | None -> invalid_arg (Printf.sprintf "Experiments.meter: unknown experiment id %S" o.Outcome.id))
      outcomes
  in
  (* The metrics-armed run comes first and doubles as the warm-up:
     first-run table growth is not steady state. *)
  let totals =
    List.map
      (fun (_, run) ->
        Mb_obs.Ctl.set { Mb_obs.Ctl.trace = false; metrics = true };
        Fun.protect
          ~finally:(fun () -> Mb_obs.Ctl.set Mb_obs.Ctl.off)
          (fun () ->
            run ();
            Mb_obs.Recorder.totals (Mb_obs.Collect.drain ())))
      runs
  in
  let samples = Array.make (List.length runs) [] in
  for _ = 1 to timed_runs do
    List.iteri
      (fun i (_, run) ->
        let t0 = Unix.gettimeofday () in
        let w0 = Gc.minor_words () in
        run ();
        let w1 = Gc.minor_words () in
        let t1 = Unix.gettimeofday () in
        samples.(i) <- ((t1 -. t0) *. 1e9, w1 -. w0) :: samples.(i))
      runs
  done;
  List.map2
    (fun ((o : Outcome.t), _) (timed, totals) ->
      ( "exp:" ^ o.Outcome.id,
        { Mb_suite.History.ok = Outcome.passed o;
          ns_per_run = median (List.map fst timed);
          minor_words_per_run = median (List.map snd timed);
          counters = List.filter (fun (k, _) -> List.mem k headline_counters) totals;
        } ))
    runs
    (List.combine (Array.to_list samples) totals)
