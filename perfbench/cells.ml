(* The benchmark's workloads: each is a list of cells, and a cell is a
   handful of runs of one public workload driver (Bench1, Bench2,
   Server) with the benchmark's own parameters. A cell returns a digest
   of every simulated result it produced and the verdict of the
   paper-shape relation the registry asserts for the artifact it
   mirrors. *)

module M = Core.Machine
module F = Core.Factory
module Configs = Core.Configs
module Bench1 = Core.Bench1
module Bench2 = Core.Bench2
module Server = Core.Server

type request_summary = {
  completed : int;
  dropped : int;
  p99_ns : float;
}

type outcome = {
  digest : string;                 (* hex MD5 of the canonical result rendering *)
  shape : (string, string) result; (* the paper-shape relation, with its numbers *)
  degraded_ops : int;
  sim_s : float;                   (* summed simulated makespan *)
  requests : request_summary list; (* open-loop server runs only *)
}

type cell = {
  name : string;
  machine : M.config;
  threads : int;  (* simulated threads of the cell's largest run *)
  run : wrap:(F.t -> F.t) -> outcome;
      (* [wrap] is applied to every factory handed to a driver, so the
         runner sees (and may instrument) every allocator created. *)
}

type workload = {
  wname : string;
  build : seed:int -> cell list;
      (* Builds the cells for a seed; any calibration runs here, so it
         is part of set-up. *)
}

(* --- result rendering ---------------------------------------------------- *)

(* Floats render in hex so a digest changes on any bit of any result. *)
let fl x = Printf.sprintf "%h" x

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let render_b1 (r : Bench1.result) =
  String.concat ","
    (("b1" :: List.map fl r.Bench1.elapsed_s)
    @ List.map string_of_int
        [ r.Bench1.ctx_switches; r.Bench1.lock_contended_ops; r.Bench1.arenas; r.Bench1.blocks;
          r.Bench1.degraded_ops ]
    @ [ fl r.Bench1.utilization ])

let render_b2 (r : Bench2.result) =
  String.concat ","
    ("b2"
    :: List.map string_of_int
         [ r.Bench2.minor_faults; r.Bench2.resident_pages; r.Bench2.mapped_bytes;
           r.Bench2.sbrk_calls; r.Bench2.mmap_calls; r.Bench2.arenas_created;
           r.Bench2.foreign_frees; r.Bench2.degraded_ops ]
    @ [ fl r.Bench2.elapsed_s ])

let render_server (r : Server.result) =
  let req =
    match r.Server.requests with
    | None -> []
    | Some s ->
        List.map string_of_int [ s.Server.completed; s.Server.dropped; s.Server.churned ]
        @ List.map fl
            [ s.Server.offered_rps; s.Server.throughput_rps; s.Server.mean_ns; s.Server.p50_ns;
              s.Server.p95_ns; s.Server.p99_ns; s.Server.max_ns ]
        @ List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) s.Server.by_class
  in
  String.concat ","
    (("srv" :: fl r.Server.elapsed_s :: fl r.Server.requests_per_second
      :: List.map fl r.Server.per_thread_s)
    @ List.map string_of_int
        [ r.Server.foreign_frees; r.Server.arenas; r.Server.contended_ops; r.Server.degraded_ops ]
    @ req)

(* --- shape verdicts ------------------------------------------------------ *)

let expect cond fmt = Printf.ksprintf (fun s -> if cond then Ok s else Error s) fmt

let all_of verdicts =
  match List.find_opt Result.is_error verdicts with
  | Some e -> e
  | None -> Ok (String.concat "; " (List.filter_map Result.to_option verdicts))

(* --- scalability: paper benchmark 1 ------------------------------------- *)

let b1_iterations = 20_000

(* The registry scales ptmalloc's costs on the Xeon (Exp_bench1). *)
let xeon_ptmalloc () = F.ptmalloc ~costs:(Core.Costs.scaled Core.Costs.glibc 1.115) ()

let b1 ~wrap (p : Bench1.params) = Bench1.run { p with Bench1.factory = wrap p.Bench1.factory }

let b1_params ~seed machine factory size =
  { Bench1.default with
    Bench1.machine;
    seed;
    iterations = b1_iterations;
    size;
    factory;
    mode = Bench1.Threads;
  }

let b1_outcome runs shape =
  { digest = digest_of (List.map render_b1 runs);
    shape;
    degraded_ops = List.fold_left (fun a r -> a + r.Bench1.degraded_ops) 0 runs;
    sim_s = List.fold_left (fun a r -> a +. List.fold_left Float.max 0. r.Bench1.elapsed_s) 0. runs;
    requests = [];
  }

(* Figure 4: more ptmalloc workers than CPUs on the quad Xeon, 8 KB.
   Past four workers a run falls into a slow mode at random, which can
   more than double its host work; the five-worker side is therefore
   short runs over several seeds, whose mean is what the registry's
   "second jump" relation compares with the four-worker plateau. *)
let fig4_fifth_seeds = 4
let fig4_fifth_iterations = 1_000

let fig4 ~seed =
  { name = "fig4-xeon-ptmalloc-4v5w";
    machine = Configs.quad_xeon;
    threads = 5;
    run =
      (fun ~wrap ->
        let p = b1_params ~seed Configs.quad_xeon (xeon_ptmalloc ()) 8192 in
        let r4 = b1 ~wrap { p with Bench1.workers = 4 } in
        let r5s =
          List.init fig4_fifth_seeds (fun i ->
              b1 ~wrap
                { p with
                  Bench1.workers = 5;
                  iterations = fig4_fifth_iterations;
                  seed = seed + (17 * (i + 1));
                })
        in
        let m4 = Bench1.mean_scaled r4 in
        let m5 =
          List.fold_left (fun a r -> a +. Bench1.mean_scaled r) 0. r5s
          /. float_of_int fig4_fifth_seeds
        in
        b1_outcome (r4 :: r5s)
          (expect (m5 > m4 *. 1.12) "t4=%.2f t5=%.2f, second jump past 4 CPUs needs t5 > 1.12 t4" m4
             m5));
  }

(* Tables 1 and 2: two workers as threads of one process vs as two
   processes; the gap is the registry's banded relation. *)
let threads_vs_processes ~name ~machine ~factory ~band:(lo, hi) ~seed =
  { name;
    machine;
    threads = 2;
    run =
      (fun ~wrap ->
        let p = { (b1_params ~seed machine factory 512) with Bench1.workers = 2 } in
        let thr = b1 ~wrap { p with Bench1.mode = Bench1.Threads } in
        let prc = b1 ~wrap { p with Bench1.mode = Bench1.Processes } in
        let gap = Bench1.mean_scaled thr /. Bench1.mean_scaled prc in
        b1_outcome [ thr; prc ]
          (expect (gap >= lo && gap <= hi) "threads/processes gap %.3f, band [%.2f, %.2f]" gap lo
             hi));
  }

let table1 ~seed =
  threads_vs_processes ~name:"table1-ppro-ptmalloc-thr-v-proc" ~machine:Configs.dual_pentium_pro
    ~factory:(F.ptmalloc ()) ~band:(1.02, 1.35) ~seed

let table2 ~seed =
  threads_vs_processes ~name:"table2-sparc-serial-thr-v-proc" ~machine:Configs.dual_ultrasparc
    ~factory:(F.serial_solaris ()) ~band:(5.0, 14.0) ~seed

(* --- leakage: paper benchmark 2 ----------------------------------------- *)

let b2_objects = 6_000
let b2_replacements = 2_200
let b2_threads = 7

(* Each leakage cell runs the same 7-thread chain at two round counts;
   the page-fault growth between them is the per-round leak the paper's
   predictor models. *)
let leakage_cell ~name ~machine ~rounds:(r_lo, r_hi) ~seed ~shape_of =
  { name;
    machine;
    threads = b2_threads + 1;
    run =
      (fun ~wrap ->
        let p =
          { Bench2.default with
            Bench2.machine;
            seed;
            threads = b2_threads;
            objects_per_thread = b2_objects;
            replacements_per_round = b2_replacements;
          }
        in
        let run rounds = Bench2.run { p with Bench2.rounds; factory = wrap p.Bench2.factory } in
        let lo = run r_lo in
        let hi = run r_hi in
        let per_round_thread =
          float_of_int (hi.Bench2.minor_faults - lo.Bench2.minor_faults)
          /. float_of_int ((r_hi - r_lo) * b2_threads)
        in
        { digest = digest_of [ render_b2 lo; render_b2 hi ];
          shape = shape_of ~lo ~hi ~per_round_thread;
          degraded_ops = lo.Bench2.degraded_ops + hi.Bench2.degraded_ops;
          sim_s = lo.Bench2.elapsed_s +. hi.Bench2.elapsed_s;
          requests = [];
        });
  }

(* Figure 8: seven threads on the quad Xeon; faults grow about a page
   per thread-round, and stay bounded by the live-object floor. The
   first rounds grow faster while arenas are still being created, so
   the slope is taken from round 4 on. *)
let fig8_rounds = (4, 12)

let fig8 ~seed =
  leakage_cell ~name:"fig8-xeon-7t" ~machine:Configs.quad_xeon ~rounds:fig8_rounds ~seed
    ~shape_of:(fun ~lo:_ ~hi ~per_round_thread ->
      let floor = float_of_int (b2_threads * b2_objects) *. 48. /. 4096. in
      let faults = float_of_int hi.Bench2.minor_faults in
      all_of
        [ expect (per_round_thread >= 0.5 && per_round_thread <= 4.)
            "%.2f faults per thread-round, band [0.5, 4]" per_round_thread;
          expect (faults < 3. *. (floor +. (per_round_thread *. float_of_int (8 * b2_threads))))
            "%.0f faults, bounded by 3x (floor %.0f + growth)" faults floor;
        ])

(* Figure 7: seven threads on the uniprocessor K6. Preemption lands
   threads on fresh arenas far more often here, so only the registry's
   lower bound (figure 6: minimum faults grow at least half a page per
   thread-round) applies. *)
let fig7 ~seed =
  leakage_cell ~name:"fig7-k6-7t" ~machine:Configs.uni_k6 ~rounds:(1, 8) ~seed
    ~shape_of:(fun ~lo:_ ~hi:_ ~per_round_thread ->
      expect (per_round_thread >= 0.5) "%.2f faults per thread-round (needs >= 0.5)"
        per_round_thread)

(* --- server: open-loop traffic over three allocators -------------------- *)

let server_threads = 4
let server_connections = 128
let tpc_connections = 2_048
let calibration_requests = 500
let open_requests = 5_000
let below_knee = 0.5
let past_knee = 1.4

(* Closed-loop throughput of ptmalloc, the registry's server-knee
   calibration: the open-loop rates are fixed fractions of it. *)
let capacity_rps ~seed =
  (Server.run
     { Server.default with
       Server.machine = Configs.quad_xeon;
       seed;
       threads = server_threads;
       connections = server_connections;
       requests_per_thread = calibration_requests;
     })
    .Server.requests_per_second

let open_run ~wrap ~seed ~factory ~model ~connections ~rate =
  Server.run
    { Server.default with
      Server.machine = Configs.quad_xeon;
      seed;
      threads = server_threads;
      connections;
      factory = wrap factory;
      open_loop =
        Some
          { Server.process = Core.Arrivals.Poisson { rate_rps = rate };
            total_requests = open_requests;
            model;
            churn_mean_requests = 64;
            read_pct = 60;
            write_pct = 25;
          };
    }

let stats_of (r : Server.result) =
  match r.Server.requests with
  | Some s -> s
  | None -> invalid_arg "open-loop server run without request statistics"

let server_outcome runs shape =
  { digest = digest_of (List.map render_server runs);
    shape;
    degraded_ops = List.fold_left (fun a r -> a + r.Server.degraded_ops) 0 runs;
    sim_s = List.fold_left (fun a r -> a +. r.Server.elapsed_s) 0. runs;
    requests =
      List.map
        (fun r ->
          let s = stats_of r in
          { completed = s.Server.completed; dropped = s.Server.dropped; p99_ns = s.Server.p99_ns })
        runs;
  }

let keeps_up label (s : Server.request_stats) =
  expect
    (s.Server.throughput_rps > 0.9 *. s.Server.offered_rps && s.Server.dropped = 0)
    "%s below the knee serves %.0f of %.0f rps offered, %d dropped (needs > 90%%, none)" label s.Server.throughput_rps
    s.Server.offered_rps s.Server.dropped

let falls_behind label (s : Server.request_stats) =
  expect
    (s.Server.throughput_rps < 0.95 *. s.Server.offered_rps || s.Server.dropped > 0)
    "%s past the knee serves %.0f of %.0f rps offered (needs < 95%% or drops)" label s.Server.throughput_rps
    s.Server.offered_rps

(* A thread-pool cell: one allocator at a load below the knee and one
   past it. *)
let pool_cell ~capacity ~seed ~factory ~shape_of =
  let label = factory.F.label in
  { name = "pool-" ^ label;
    machine = Configs.quad_xeon;
    threads = server_threads + 1;
    run =
      (fun ~wrap ->
        let run load =
          open_run ~wrap ~seed ~factory
            ~model:(Server.Thread_pool { queue_capacity = 2_048 })
            ~connections:server_connections ~rate:(capacity *. load)
        in
        let light = run below_knee in
        let heavy = run past_knee in
        server_outcome [ light; heavy ] (shape_of label (stats_of light) (stats_of heavy)));
  }

let tpc_cell ~capacity ~seed =
  { name = "tpc-ptmalloc-2048conn";
    machine = Configs.quad_xeon;
    threads = tpc_connections + 1;
    run =
      (fun ~wrap ->
        let r =
          open_run ~wrap ~seed ~factory:(F.ptmalloc ()) ~model:Server.Thread_per_connection
            ~connections:tpc_connections ~rate:(capacity *. below_knee)
        in
        let s = stats_of r in
        server_outcome [ r ]
          (expect
             (s.Server.completed = open_requests && s.Server.dropped = 0)
             "thread-per-connection completed %d of %d requests" s.Server.completed
             open_requests));
  }

let server_cells ~seed =
  let capacity = capacity_rps ~seed in
  let light_keeps_up label light _heavy = keeps_up label light in
  [ pool_cell ~capacity ~seed ~factory:(F.ptmalloc ()) ~shape_of:light_keeps_up;
    pool_cell ~capacity ~seed ~factory:(F.serial_glibc ()) ~shape_of:(fun label light heavy ->
        all_of
          [ falls_behind label heavy;
            expect
              (heavy.Server.p99_ns > 4. *. light.Server.p99_ns)
              "%s p99 grows %.1fx past the knee (needs > 4x)" label
              (heavy.Server.p99_ns /. light.Server.p99_ns);
          ]);
    pool_cell ~capacity ~seed ~factory:(F.slab ()) ~shape_of:light_keeps_up;
    tpc_cell ~capacity ~seed;
  ]

(* --- the workloads ------------------------------------------------------- *)

(* Each cell gets its own seed so cells never share a random stream. *)
let seeded cells ~seed = List.mapi (fun k mk -> mk ~seed:(seed + (101 * k))) cells

let workloads =
  [ (* Benchmark 1's closed loop: trivial same-size allocator work, so host
       time goes to events, effects and mutexes. *)
    { wname = "scalability"; build = seeded [ fig4; table1; table2 ] };
    (* Benchmark 2's closed loop: foreign frees, contended arenas, bin
       search and sbrk growth. *)
    { wname = "leakage"; build = seeded [ fig8; fig7 ] };
    (* The open-loop server: timer wakes, parked threads, mmap churn and
       the non-ptmalloc allocators. *)
    { wname = "server"; build = (fun ~seed -> server_cells ~seed) };
  ]

let find name = List.find_opt (fun w -> w.wname = name) workloads
