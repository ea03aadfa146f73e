(* The benchmark harness.

   Phase 1 regenerates every table and figure from the paper (plus the
   ablations and future-work extensions) at full scale and prints them
   with their shape checks — the reproduction's primary output, recorded
   in EXPERIMENTS.md.

   Phase 2 runs one Bechamel microbenchmark per paper artifact: each
   measures the wall-clock cost of the miniature kernel of that
   experiment's workload on this host, i.e. the simulator's own speed.

   Both phases are timed, and the results land in BENCH_kernels.json
   (kernel name -> ns/run plus the harness's own wall clock) so the
   reproduction's speed can be tracked across PRs.

   Set MALLOC_REPRO_QUICK=1 for reduced iteration counts,
   MALLOC_REPRO_NO_BECHAMEL=1 to skip phase 2, MALLOC_REPRO_JOBS=N to
   set the experiment pool width (default: all cores), and
   MALLOC_REPRO_BENCH_JSON to redirect the JSON report. *)

let quick = Sys.getenv_opt "MALLOC_REPRO_QUICK" <> None

(* --- phase 2: bechamel kernels ---------------------------------------- *)

module Kernels = struct
  module B1 = Core.Bench1
  module B2 = Core.Bench2
  module B3 = Core.Bench3

  let bench1 ~machine ~factory ~workers ~mode ~size () =
    ignore
      (B1.run
         { B1.default with
           B1.machine;
           factory;
           workers;
           mode;
           size;
           iterations = 300;
           paper_iterations = 300;
         })

  let bench2 ~machine ~threads ~rounds () =
    ignore
      (B2.run
         { B2.default with
           B2.machine;
           threads;
           rounds;
           objects_per_thread = 400;
           replacements_per_round = 150;
         })

  let bench3 ~threads ~aligned () =
    ignore
      (B3.run
         { B3.default with B3.threads; aligned; object_size = 40; writes = 20_000; paper_writes = 20_000 })

  (* The open-loop traffic engine: acceptor + bounded-queue pool under a
     Poisson stream just past the knee, so the priced path includes
     timer sleeps, waitq handoffs and connection churn. *)
  let server_open ~model () =
    let module S = Core.Server in
    ignore
      (S.run
         { S.default with
           S.machine = Core.Configs.quad_xeon;
           threads = 4;
           connections = 64;
           open_loop =
             Some
               { S.process = Core.Arrivals.Poisson { rate_rps = 450_000. };
                 total_requests = 600;
                 model;
                 churn_mean_requests = 32;
                 read_pct = 60;
                 write_pct = 25;
               };
         })

  (* The event queue under a deep pending set: 4,096 fibers, fiber i
     sleeping 8 times for 1 + (i * 7919 mod 997) ns, keep about 4k
     events queued — far past the ring's target, so pushes and pops pay
     for the heap overflow. No registered workload runs this deep; the
     kernel prices the fallback rather than assuming it is cheap. *)
  let queue_deep () =
    let e = Core.Engine.create () in
    for i = 0 to 4095 do
      let d = float_of_int (1 + (i * 7919 mod 997)) in
      ignore
        (Core.Engine.spawn e (fun () ->
             for _ = 1 to 8 do
               Core.Engine.delay d
             done))
    done;
    Core.Engine.run e

  (* One kernel per paper artifact, plus the deep-queue stress. *)
  let all =
    let ppro = Core.Configs.dual_pentium_pro in
    let xeon = Core.Configs.quad_xeon in
    let sparc = Core.Configs.dual_ultrasparc in
    let k6 = Core.Configs.uni_k6 in
    let pt = Core.Factory.ptmalloc () in
    let serial = Core.Factory.serial_solaris () in
    [ ("table1", bench1 ~machine:ppro ~factory:pt ~workers:2 ~mode:B1.Threads ~size:512);
      ("fig1", bench1 ~machine:ppro ~factory:pt ~workers:4 ~mode:B1.Threads ~size:8192);
      ("fig2", bench1 ~machine:ppro ~factory:pt ~workers:16 ~mode:B1.Threads ~size:4100);
      ("table2", bench1 ~machine:sparc ~factory:serial ~workers:2 ~mode:B1.Threads ~size:512);
      ("fig3", bench1 ~machine:sparc ~factory:serial ~workers:4 ~mode:B1.Threads ~size:8192);
      ("table3", bench1 ~machine:xeon ~factory:pt ~workers:2 ~mode:B1.Threads ~size:512);
      ("fig4", bench1 ~machine:xeon ~factory:pt ~workers:5 ~mode:B1.Threads ~size:8192);
      ("table4", bench1 ~machine:xeon ~factory:pt ~workers:3 ~mode:B1.Threads ~size:8192);
      ("predictor", bench2 ~machine:k6 ~threads:1 ~rounds:2);
      ("fig5", bench2 ~machine:k6 ~threads:1 ~rounds:4);
      ("fig6", bench2 ~machine:k6 ~threads:3 ~rounds:4);
      ("fig7", bench2 ~machine:k6 ~threads:7 ~rounds:2);
      ("fig8", bench2 ~machine:xeon ~threads:7 ~rounds:4);
      ("fig9", bench3 ~threads:2 ~aligned:false);
      ("fig10", bench3 ~threads:3 ~aligned:false);
      ("fig11", bench3 ~threads:4 ~aligned:false);
      ("bench3-aligned", bench3 ~threads:4 ~aligned:true);
      ("server-open-pool", server_open ~model:(Core.Server.Thread_pool { queue_capacity = 256 }));
      ("server-open-tpc", server_open ~model:Core.Server.Thread_per_connection);
      ("queue-deep", queue_deep);
    ]
end

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    List.map (fun (name, kernel) -> Test.make ~name (Staged.stage kernel)) Kernels.all
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let cfg =
    Benchmark.cfg ~limit:30
      ~quota:(Time.second (if quick then 0.10 else 0.30))
      ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "=== bechamel: simulator kernel cost per paper artifact (host wall clock) ===";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort compare rows in
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          Printf.printf "%-28s %12.0f ns/run\n" name ns;
          Some (name, ns)
      | Some _ | None ->
          Printf.printf "%-28s (no estimate)\n" name;
          None)
    rows

(* --- phase 3: observed counters per kernel ------------------------------ *)

(* One extra (untimed) run of each kernel with metrics on, so the JSON
   records what the kernel *does* alongside what it costs: a drift in
   lock traffic or arena churn shows up in review even when the ns/run
   happens to stay flat. Runs after bechamel so observation can never
   touch the timed path. *)

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

let observe_kernels () =
  Core.Obs.Ctl.set { Core.Obs.Ctl.trace = false; metrics = true };
  let observed =
    List.map
      (fun (name, kernel) ->
        kernel ();
        let totals = Core.Obs.Recorder.totals (Core.Obs.Collect.drain ()) in
        (name, List.filter (fun (k, _) -> List.mem k headline_counters) totals))
      Kernels.all
  in
  Core.Obs.Ctl.set Core.Obs.Ctl.off;
  observed

(* --- phase 4: GC pressure per kernel ------------------------------------ *)

(* How many words each kernel makes the *host* GC allocate per run —
   the direct measure of the simulator's hot-path allocation discipline
   (event queue, heap index, scheduler). Observation stays off so the
   numbers describe the same configuration bechamel timed. Each kernel
   is run once to warm up (first-run arena/table growth is not steady
   state), then [reps] times under [Gc.minor_words] deltas. *)

let gc_kernels () =
  let reps = if quick then 1 else 3 in
  List.map
    (fun (name, kernel) ->
      kernel ();
      let w0 = Gc.minor_words () in
      let p0 = (Gc.quick_stat ()).Gc.promoted_words in
      for _ = 1 to reps do
        kernel ()
      done;
      let minor = (Gc.minor_words () -. w0) /. float_of_int reps in
      let promoted = ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int reps in
      (name, minor, promoted))
    Kernels.all

(* --- BENCH_kernels.json ------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The kernel names come back from bechamel as "kernels/<artifact>"; keep
   just the artifact so the JSON keys are stable across grouping changes. *)
let kernel_key name =
  match String.rindex_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* The host block makes the baseline's provenance explicit: ns/run
   numbers are only comparable on the machine that wrote them, and
   compare.ml warns when the fresh run's host differs. *)
let host_cpu_model () =
  match
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
              match String.index_opt line ':' with
              | Some i
                when String.length line >= 10 && String.sub line 0 10 = "model name" ->
                  Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
              | _ -> scan ())
        in
        scan ())
  with
  | Some model -> model
  | None | (exception Sys_error _) -> "unknown"

let write_json path ~jobs ~experiments_wall_s ~bechamel_wall_s ~total_wall_s ~counters ~gc
    kernels =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": 3,\n";
  Printf.fprintf oc "  \"host\": {\"cores\": %d, \"cpu_model\": \"%s\", \"domains\": 1},\n"
    (Domain.recommended_domain_count ())
    (json_escape (host_cpu_model ()));
  Printf.fprintf oc "  \"mode\": %S,\n" (if quick then "quick" else "full");
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"experiments_wall_s\": %.3f,\n" experiments_wall_s;
  Printf.fprintf oc "  \"bechamel_wall_s\": %.3f,\n" bechamel_wall_s;
  Printf.fprintf oc "  \"total_wall_s\": %.3f,\n" total_wall_s;
  Printf.fprintf oc "  \"kernels_ns_per_run\": {";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "%s\n    \"%s\": %.1f" (if i = 0 then "" else ",")
        (json_escape (kernel_key name)) ns)
    kernels;
  Printf.fprintf oc "%s},\n" (if kernels = [] then "" else "\n  ");
  Printf.fprintf oc "  \"kernel_counters\": {";
  List.iteri
    (fun i (name, cs) ->
      Printf.fprintf oc "%s\n    \"%s\": {" (if i = 0 then "" else ",") (json_escape name);
      List.iteri
        (fun j (k, v) ->
          Printf.fprintf oc "%s\"%s\": %d" (if j = 0 then "" else ", ") (json_escape k) v)
        cs;
      Printf.fprintf oc "}")
    counters;
  Printf.fprintf oc "%s},\n" (if counters = [] then "" else "\n  ");
  Printf.fprintf oc "  \"kernel_gc\": {";
  List.iteri
    (fun i (name, minor, promoted) ->
      Printf.fprintf oc
        "%s\n    \"%s\": {\"minor_words_per_run\": %.0f, \"promoted_words_per_run\": %.0f}"
        (if i = 0 then "" else ",")
        (json_escape name) minor promoted)
    gc;
  Printf.fprintf oc "%s}\n}\n" (if gc = [] then "" else "\n  ");
  close_out oc

(* --- main ---------------------------------------------------------------- *)

let () =
  let opts = { Core.Exp_common.quick; seed = 1 } in
  let jobs = Core.Pool.default_jobs () in
  Printf.printf "malloc() reproduction benchmark harness (%s mode, %d job%s)\n\n"
    (if quick then "quick" else "full")
    jobs
    (if jobs = 1 then "" else "s");
  let t0 = Unix.gettimeofday () in
  let outcomes = Core.Experiments.run_all opts in
  let t1 = Unix.gettimeofday () in
  print_endline "== summary: paper artifacts and extensions ==";
  List.iter (fun o -> print_endline (Core.Outcome.summary_line o)) outcomes;
  let failed = List.filter (fun o -> not (Core.Outcome.passed o)) outcomes in
  Printf.printf "\n%d/%d experiments reproduce the paper's shape\n\n"
    (List.length outcomes - List.length failed)
    (List.length outcomes);
  let kernels =
    if Sys.getenv_opt "MALLOC_REPRO_NO_BECHAMEL" = None then run_bechamel () else []
  in
  let t2 = Unix.gettimeofday () in
  let counters = observe_kernels () in
  let gc = gc_kernels () in
  print_endline "=== gc: simulator allocation pressure per kernel (host minor words/run) ===";
  List.iter
    (fun (name, minor, promoted) ->
      Printf.printf "%-28s %14.0f minor words/run %12.0f promoted\n" name minor promoted)
    gc;
  let json_path =
    match Sys.getenv_opt "MALLOC_REPRO_BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_kernels.json"
  in
  write_json json_path ~jobs ~experiments_wall_s:(t1 -. t0) ~bechamel_wall_s:(t2 -. t1)
    ~total_wall_s:(t2 -. t0) ~counters ~gc kernels;
  Printf.printf "wall clock: experiments %.1fs, bechamel %.1fs -> %s\n" (t1 -. t0) (t2 -. t1)
    json_path;
  if failed <> [] then exit 1
