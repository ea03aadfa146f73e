type verdict = {
  lines : string list;
  warnings : string list;
  regressions : string list;
  gc_regressions : string list;
  ok : bool;
}

let median = function
  | [] -> invalid_arg "median of empty list"
  | xs ->
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let check ?(last = 5) ?(threshold = 1.25) ?(gc_threshold = 1.25) ?scale_first
    (history : History.t) =
  match List.rev history.History.sessions with
  | [] -> Error "gate: history holds no sessions"
  | fresh :: earlier_rev ->
      let fresh =
        match (scale_first, fresh.History.cells) with
        | Some factor, (key, c) :: rest ->
            { fresh with
              History.cells =
                (key, { c with History.ns_per_run = c.History.ns_per_run *. factor }) :: rest
            }
        | _ -> fresh
      in
      let lines = ref [] and warnings = ref [] in
      let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
      let warn fmt =
        Printf.ksprintf
          (fun s ->
            lines := s :: !lines;
            warnings := s :: !warnings)
          fmt
      in
      (* ns/run and minor words are only comparable between sessions
         that ran the same program on the same host and pool width: a
         quick session allocates about a tenth of a full one. *)
      let comparable s =
        s.History.host = fresh.History.host
        && s.History.mode = fresh.History.mode
        && s.History.seed = fresh.History.seed
      in
      let matching, others = List.partition comparable (List.rev earlier_rev) in
      if others <> [] then
        warn
          "gate: note: ignoring %d session(s) from other hosts, modes or seeds (fresh: %s, \
           seed %d, host %s)"
          (List.length others) fresh.History.mode fresh.History.seed
          (History.host_to_string fresh.History.host);
      let baselines = last_n last matching in
      say "gate: fresh session %s (%s, %d cells) vs %d baseline session(s) on %s"
        fresh.History.id fresh.History.suite
        (List.length fresh.History.cells)
        (List.length baselines)
        (History.host_to_string fresh.History.host);
      if baselines = [] then begin
        warn
          "gate: WARNING: no earlier session on this host in this mode and seed — \
           nothing to gate against, this session seeds the baseline";
        say "gate: OK (vacuous)";
        Ok
          { lines = List.rev !lines;
            warnings = List.rev !warnings;
            regressions = [];
            gc_regressions = [];
            ok = true;
          }
      end
      else begin
        let baseline_of key get =
          match
            List.filter_map
              (fun s ->
                match List.assoc_opt key s.History.cells with
                | Some c ->
                    let v = get c in
                    if v > 0. then Some v else None
                | None -> None)
              baselines
          with
          | [] -> None
          | vs -> Some (median vs)
        in
        (* Shared cells: fresh x (median of the same-host window). *)
        let shared =
          List.filter_map
            (fun (key, c) ->
              match baseline_of key (fun c -> c.History.ns_per_run) with
              | Some b when c.History.ns_per_run > 0. ->
                  Some (key, b, c.History.ns_per_run, c.History.ns_per_run /. b)
              | _ -> None)
            fresh.History.cells
        in
        let fresh_only =
          List.filter_map
            (fun (key, _) ->
              if List.exists (fun (k, _, _, _) -> k = key) shared then None else Some key)
            fresh.History.cells
        in
        (* A cell every baseline session recorded but the fresh one
           dropped: the registry does change deliberately, so this
           warns rather than fails. *)
        let dropped =
          match baselines with
          | [] -> []
          | b0 :: rest ->
              List.filter_map
                (fun (key, _) ->
                  if
                    List.for_all (fun s -> List.mem_assoc key s.History.cells) rest
                    && not (List.mem_assoc key fresh.History.cells)
                  then Some key
                  else None)
                b0.History.cells
        in
        if shared = [] then begin
          say "gate: FAIL (no cells in common with the baseline window)";
          Ok
            { lines = List.rev !lines;
              warnings = List.rev !warnings;
              regressions = [];
              gc_regressions = [];
              ok = false;
            }
        end
        else begin
          let m =
            if List.length shared >= 3 then median (List.map (fun (_, _, _, r) -> r) shared)
            else begin
              warn
                "gate: WARNING: only %d shared cell(s) — too few to estimate the host \
                 factor, gating on raw ratios"
                (List.length shared);
              1.0
            end
          in
          say "gate: %d shared cells, host factor (median ratio) %.3f, threshold %.2f"
            (List.length shared) m threshold;
          let regressions = ref [] in
          List.iter
            (fun (key, b, f, r) ->
              let norm = r /. m in
              let flag =
                if norm > threshold then begin
                  regressions := key :: !regressions;
                  "  <-- REGRESSION"
                end
                else ""
              in
              say "  %-40s %12.0f -> %12.0f ns/run  ratio %.3f  normalized %.3f%s" key b f r
                norm flag)
            shared;
          List.iter (fun k -> warn "  %-40s only in fresh session (no baseline yet)" k)
            fresh_only;
          List.iter (fun k -> warn "  %-40s dropped since the baseline window" k) dropped;
          let gc_regressions = ref [] in
          List.iter
            (fun (key, c) ->
              match baseline_of key (fun c -> c.History.minor_words_per_run) with
              | Some b when c.History.minor_words_per_run > 0. ->
                  let r = c.History.minor_words_per_run /. b in
                  if r > gc_threshold then begin
                    gc_regressions := key :: !gc_regressions;
                    say "  %-40s minor words %.0f -> %.0f per run  ratio %.3f  <-- GC REGRESSION"
                      key b c.History.minor_words_per_run r
                  end
              | _ -> ())
            fresh.History.cells;
          let ok = !regressions = [] && !gc_regressions = [] in
          if ok then say "gate: OK"
          else
            say "gate: FAIL (%d regression(s), %d GC regression(s))"
              (List.length !regressions)
              (List.length !gc_regressions);
          Ok
            { lines = List.rev !lines;
              warnings = List.rev !warnings;
              regressions = List.rev !regressions;
              gc_regressions = List.rev !gc_regressions;
              ok;
            }
        end
      end
