(* Tests for the session layer: the history file, the trend-aware
   gate, the trend report, the registry's session metering and the
   [experiment --history] command line. *)

module History = Core.Suite.History
module Gate = Core.Suite.Gate
module Report = Core.Suite.Report
module Json = Core.Suite.Json

(* Substring search, so the tests don't pull in Str. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- history -------------------------------------------------------------- *)

let sample_host = { History.cores = 4; cpu_model = "test cpu"; domains = 1 }

let cell ?(ok = true) ns words =
  { History.ok;
    ns_per_run = ns;
    minor_words_per_run = words;
    counters = [ ("alloc.mallocs", 42); ("vm.sbrk_calls", 3) ];
  }

let session ?(host = sample_host) ?(mode = "quick") id cells =
  { History.id; time_s = 1000.; suite = "s"; mode; seed = 1; host; wall_s = Some 4.25; cells }

let with_tmp f =
  let path = Filename.temp_file "mb_history" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_history_round_trip () =
  with_tmp @@ fun path ->
  let t =
    { History.sessions =
        [ session "a" [ ("k1", cell 100. 10.); ("k2", cell 200. 20.) ];
          session "b" [ ("k1", cell ~ok:false 110. 11.) ];
        ]
    }
  in
  History.save path t;
  match History.load path with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok t' ->
      Alcotest.(check bool) "round-trips structurally" true (t = t');
      Alcotest.(check int) "two sessions" 2 (List.length t'.History.sessions)

let test_history_missing_and_future () =
  (match History.load "/nonexistent/dir/h.json" with
  | Ok t -> Alcotest.(check int) "missing file is empty history" 0 (List.length t.History.sessions)
  | Error e -> Alcotest.failf "missing file should be Ok empty: %s" e);
  with_tmp @@ fun path ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"schema\": 99, \"sessions\": []}");
  match History.load path with
  | Ok _ -> Alcotest.fail "future schema accepted"
  | Error _ -> ()

let test_history_append () =
  with_tmp @@ fun path ->
  Sys.remove path;
  (match History.append path (session "a" [ ("k", cell 1. 1.) ]) with
  | Error e -> Alcotest.failf "first append: %s" e
  | Ok t -> Alcotest.(check int) "one session" 1 (List.length t.History.sessions));
  match History.append path (session "b" [ ("k", cell 2. 2.) ]) with
  | Error e -> Alcotest.failf "second append: %s" e
  | Ok t ->
      Alcotest.(check (list string)) "chronological ids" [ "a"; "b" ]
        (List.map (fun s -> s.History.id) t.History.sessions)

let test_history_without_wall_clock () =
  with_tmp @@ fun path ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "{\"schema\": 1, \"sessions\": [{\"id\": \"old\", \"time_s\": 1000, \
         \"suite\": \"registry\", \"mode\": \"quick\", \"seed\": 1, \
         \"host\": {\"cores\": 4, \"cpu_model\": \"test cpu\", \"domains\": 1}, \
         \"cells\": {\"exp:table1\": {\"ok\": true, \"ns_per_run\": 100, \
         \"minor_words_per_run\": 10}}}]}");
  match History.load path with
  | Error e -> Alcotest.failf "pre-wall-clock file rejected: %s" e
  | Ok t -> (
      match t.History.sessions with
      | [ s ] -> (
          Alcotest.(check bool) "no wall clock" true (s.History.wall_s = None);
          History.save path t;
          match History.load path with
          | Ok t' -> Alcotest.(check bool) "round-trips without the field" true (t = t')
          | Error e -> Alcotest.failf "reload failed: %s" e)
      | _ -> Alcotest.fail "expected one session")

(* --- gate ----------------------------------------------------------------- *)

let gate_exn ?last ?threshold ?gc_threshold ?scale_first sessions =
  match Gate.check ?last ?threshold ?gc_threshold ?scale_first { History.sessions } with
  | Ok v -> v
  | Error e -> Alcotest.failf "gate errored: %s" e

let four_cells f =
  [ ("k1", cell (f 100.) 10.); ("k2", cell (f 200.) 10.); ("k3", cell (f 300.) 10.);
    ("k4", cell (f 400.) 10.) ]

let test_gate_passes_on_flat_trend () =
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" (four_cells (fun x -> x *. 1.05)) ] in
  Alcotest.(check bool) "ok" true v.Gate.ok;
  Alcotest.(check (list string)) "no regressions" [] v.Gate.regressions

let test_gate_fails_on_25pc_regression () =
  let fresh =
    [ ("k1", cell 100. 10.); ("k2", cell 200. 10.); ("k3", cell 300. 10.);
      ("k4", cell 520. 10.) ]  (* k4 regressed 30%, the rest are flat *)
  in
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" fresh ] in
  Alcotest.(check bool) "fails" false v.Gate.ok;
  Alcotest.(check (list string)) "names k4" [ "k4" ] v.Gate.regressions

let test_gate_normalizes_host_factor () =
  (* Uniform 2x slowdown (a slower runner) is cancelled by the median;
     the same 2x on a single cell is a regression. *)
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" (four_cells (fun x -> x *. 2.)) ] in
  Alcotest.(check bool) "uniform slowdown passes" true v.Gate.ok

let test_gate_median_baseline_rides_out_noise () =
  (* One noisy session inside the window must not poison the baseline. *)
  let v =
    gate_exn
      [ session "a" (four_cells Fun.id);
        session "noisy" (four_cells (fun x -> x *. 10.));
        session "c" (four_cells Fun.id);
        session "fresh" (four_cells (fun x -> x *. 1.02));
      ]
  in
  Alcotest.(check bool) "ok" true v.Gate.ok

let test_gate_fresh_only_warns () =
  let fresh = ("new", cell 999. 10.) :: four_cells Fun.id in
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" fresh ] in
  Alcotest.(check bool) "ok" true v.Gate.ok;
  Alcotest.(check bool) "warned about the fresh-only cell" true
    (List.exists (fun w -> contains w "new") v.Gate.warnings)

let test_gate_no_same_host_baseline_is_vacuous_pass () =
  let other = { History.cores = 64; cpu_model = "other cpu"; domains = 4 } in
  let v = gate_exn [ session ~host:other "a" (four_cells Fun.id); session "b" (four_cells Fun.id) ] in
  Alcotest.(check bool) "vacuous pass" true v.Gate.ok;
  Alcotest.(check bool) "warns" true (v.Gate.warnings <> [])

let test_gate_ignores_other_modes () =
  (* Full sessions allocate about ten times the minor words of a quick
     one; gating a quick session against them would be meaningless. *)
  let full id = session ~mode:"full" id (four_cells (fun x -> x *. 10.)) in
  let v = gate_exn [ full "a"; full "b"; full "c"; session "fresh" (four_cells Fun.id) ] in
  Alcotest.(check bool) "vacuous pass" true v.Gate.ok;
  Alcotest.(check bool) "says it seeds the baseline" true
    (List.exists (fun l -> contains l "OK (vacuous)") v.Gate.lines)

let test_gate_singleton_shared_set_uses_raw_ratios () =
  (* One shared cell: median normalization would hide any regression
     (ratio/median = 1.0 always); the guard gates on raw ratios. *)
  let v =
    gate_exn
      [ session "a" [ ("k1", cell 100. 10.) ];
        session "b" [ ("k1", cell 200. 10.) ];
      ]
  in
  Alcotest.(check bool) "raw 2x fails" false v.Gate.ok;
  Alcotest.(check bool) "warns about the degenerate set" true (v.Gate.warnings <> [])

let test_gate_gc_regression_is_raw () =
  let fresh =
    [ ("k1", cell 100. 20.); ("k2", cell 200. 10.); ("k3", cell 300. 10.);
      ("k4", cell 400. 10.) ]  (* k1 doubles its minor words *)
  in
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" fresh ] in
  Alcotest.(check bool) "fails" false v.Gate.ok;
  Alcotest.(check (list string)) "gc regression on k1" [ "k1" ] v.Gate.gc_regressions

let test_gate_self_test_scales_first_cell () =
  let sessions = [ session "a" (four_cells Fun.id); session "b" (four_cells Fun.id) ] in
  Alcotest.(check bool) "passes unscaled" true (gate_exn sessions).Gate.ok;
  let v = gate_exn ~scale_first:3.0 sessions in
  Alcotest.(check bool) "fails under self-test" false v.Gate.ok;
  Alcotest.(check (list string)) "first cell flagged" [ "k1" ] v.Gate.regressions

let test_gate_empty_history_errors () =
  match Gate.check { History.sessions = [] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty history should be a usage error"

(* --- report ---------------------------------------------------------------- *)

let test_report_renders_all_cells () =
  let h = { History.sessions = [ session "a" (four_cells Fun.id); session "b" (four_cells Fun.id) ] } in
  let text = Report.render h in
  List.iter
    (fun k ->
      if not (contains text k) then Alcotest.failf "report lost cell %s:\n%s" k text)
    [ "k1"; "k2"; "k3"; "k4"; "s0"; "s-1" ];
  let csv = Report.to_csv h in
  Alcotest.(check int) "csv rows: header + 2 sessions x 4 cells" 9
    (List.length (String.split_on_char '\n' (String.trim csv)))

(* --- session metering ------------------------------------------------------ *)

let quick = { Core.Exp_common.quick = true; seed = 1 }

let test_meter_reports_failing_checks () =
  let outcomes = Core.Experiments.run_all ~jobs:1 ~echo:false ~only:[ "table1"; "predictor" ] quick in
  let failed (o : Core.Outcome.t) =
    { o with Core.Outcome.checks = [ Core.Outcome.check "forced" false "injected failure" ] }
  in
  let outcomes = List.map (fun o -> if o.Core.Outcome.id = "predictor" then failed o else o) outcomes in
  let cells = Core.Experiments.meter quick outcomes in
  Alcotest.(check (list string)) "keys" [ "exp:table1"; "exp:predictor" ] (List.map fst cells);
  Alcotest.(check (list bool)) "per-cell ok" [ true; false ]
    (List.map (fun (_, (d : History.cell_data)) -> d.History.ok) cells);
  List.iter
    (fun (_, (d : History.cell_data)) ->
      Alcotest.(check bool) "timed" true (d.History.ns_per_run > 0.);
      Alcotest.(check bool) "counted" true (List.mem_assoc "alloc.mallocs" d.History.counters))
    cells;
  (* a failing session is still recorded *)
  with_tmp @@ fun path ->
  Sys.remove path;
  match History.append path (session "f" cells) with
  | Error e -> Alcotest.failf "append: %s" e
  | Ok _ -> (
      match History.load path with
      | Ok { History.sessions = [ s ] } ->
          Alcotest.(check (list bool)) "reloaded ok flags" [ true; false ]
            (List.map (fun (_, (d : History.cell_data)) -> d.History.ok) s.History.cells)
      | Ok _ -> Alcotest.fail "expected one session"
      | Error e -> Alcotest.failf "reload: %s" e)

let test_unknown_exp_id_errors () =
  match Core.Experiments.run_all ~echo:false ~only:[ "table1"; "zzz" ] quick with
  | _ -> Alcotest.fail "unknown id accepted"
  | exception Invalid_argument msg -> Alcotest.(check bool) "names the id" true (contains msg "zzz")

(* --- command line ---------------------------------------------------------- *)

(* The mallocbench binary, built beside the test (see test/dune). *)
let mallocbench =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "mallocbench.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs mallocbench with [args]; returns the exit code, stdout and stderr. *)
let cli args =
  let out = Filename.temp_file "mb_cli" ".out" and err = Filename.temp_file "mb_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (String.concat " "
             (List.map Filename.quote (mallocbench :: args)
             @ [ ">"; Filename.quote out; "2>"; Filename.quote err ]))
      in
      (code, read_file out, read_file err))

let test_cli_unknown_id () =
  let code, out, err = cli [ "experiment"; "--quick"; "nosuch" ] in
  Alcotest.(check int) "usage error" 124 code;
  Alcotest.(check bool) "names the id" true (contains err "\"nosuch\"");
  Alcotest.(check string) "runs nothing" "" out

let test_cli_history_rejects_observation () =
  with_tmp @@ fun path ->
  Sys.remove path;
  List.iter
    (fun flags ->
      let code, _, err = cli ([ "experiment"; "--quick"; "table1"; "--history"; path ] @ flags) in
      Alcotest.(check int) (String.concat " " flags ^ ": usage error") 124 code;
      Alcotest.(check bool) "explains" true (contains err "--history");
      Alcotest.(check bool) "no session recorded" false (Sys.file_exists path))
    [ [ "--check" ]; [ "--metrics" ]; [ "--faults"; "oom-pressure:7" ]; [ "--trace"; path ^ ".trace" ] ]

let test_cli_history_session () =
  with_tmp @@ fun path ->
  Sys.remove path;
  let _, plain, _ = cli [ "experiment"; "--quick"; "table1" ] in
  let code, out, _ = cli [ "experiment"; "--quick"; "table1"; "--history"; path ] in
  Alcotest.(check int) "exit" 0 code;
  let marker = "== session " in
  let rec find i =
    if i + String.length marker > String.length out then Alcotest.failf "no trailer:\n%s" out
    else if String.sub out i (String.length marker) = marker then i
    else find (i + 1)
  in
  Alcotest.(check string) "plain output before the trailer" plain (String.sub out 0 (find 0));
  match History.load path with
  | Ok { History.sessions = [ s ] } ->
      Alcotest.(check (list string)) "cells" [ "exp:table1" ] (List.map fst s.History.cells);
      Alcotest.(check string) "mode" "quick" s.History.mode;
      Alcotest.(check int) "metering pool width" (Core.Pool.default_jobs ())
        s.History.host.History.domains;
      Alcotest.(check bool) "wall clock" true (match s.History.wall_s with Some w -> w > 0. | None -> false)
  | Ok _ -> Alcotest.fail "expected one session"
  | Error e -> Alcotest.failf "history: %s" e

(* --- json ------------------------------------------------------------------ *)

let test_json_round_trip () =
  let t =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\ns"); ("n", Json.Num 1.5); ("i", Json.Num 42.);
        ("b", Json.Bool true); ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.; Json.Str "x" ]);
      ]
  in
  match Json.of_string (Json.to_string t) with
  | Ok t' -> Alcotest.(check bool) "round-trips" true (t = t')
  | Error e -> Alcotest.failf "json: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\": }"; "[1, ]"; "tru"; "\"unterminated"; "{\"a\": 1} trailing" ]

let suite =
  [ Alcotest.test_case "history round-trip" `Quick test_history_round_trip;
    Alcotest.test_case "history missing/future schema" `Quick test_history_missing_and_future;
    Alcotest.test_case "history append" `Quick test_history_append;
    Alcotest.test_case "history without wall clock" `Quick test_history_without_wall_clock;
    Alcotest.test_case "gate passes flat trend" `Quick test_gate_passes_on_flat_trend;
    Alcotest.test_case "gate fails 25% regression" `Quick test_gate_fails_on_25pc_regression;
    Alcotest.test_case "gate normalizes host factor" `Quick test_gate_normalizes_host_factor;
    Alcotest.test_case "gate medians out a noisy session" `Quick test_gate_median_baseline_rides_out_noise;
    Alcotest.test_case "gate warns on fresh-only cells" `Quick test_gate_fresh_only_warns;
    Alcotest.test_case "gate vacuous pass on new host" `Quick test_gate_no_same_host_baseline_is_vacuous_pass;
    Alcotest.test_case "gate ignores other modes" `Quick test_gate_ignores_other_modes;
    Alcotest.test_case "gate singleton shared set" `Quick test_gate_singleton_shared_set_uses_raw_ratios;
    Alcotest.test_case "gate GC regression is raw" `Quick test_gate_gc_regression_is_raw;
    Alcotest.test_case "gate self-test scales first cell" `Quick test_gate_self_test_scales_first_cell;
    Alcotest.test_case "gate empty history errors" `Quick test_gate_empty_history_errors;
    Alcotest.test_case "report renders all cells" `Quick test_report_renders_all_cells;
    Alcotest.test_case "runner reports failing checks" `Quick test_meter_reports_failing_checks;
    Alcotest.test_case "runner unknown exp id" `Quick test_unknown_exp_id_errors;
    Alcotest.test_case "cli rejects unknown experiment id" `Quick test_cli_unknown_id;
    Alcotest.test_case "cli --history rejects observation" `Quick test_cli_history_rejects_observation;
    Alcotest.test_case "cli --history records a session" `Quick test_cli_history_session;
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
  ]
