(* The traced run's spans, kept in memory and written once at the end:
   workload -> cell -> allocator op, each op aggregated over every
   timer-wrapped pass, plus one span per layer probe. Every span names
   its parent by id. *)

let num = Report.json_number

let render ~workload ~seed ~host ~overhead:(ovh_ns, ovh_words) ~bare ~wrapped ~cells ~probes =
  let spans = ref [] and next = ref 0 in
  let span ~parent name fields =
    let id = !next in
    incr next;
    spans :=
      Report.json_object
        ([ ("id", string_of_int id);
           ("parent", match parent with Some p -> string_of_int p | None -> "null");
           ("name", Report.json_string name);
         ]
        @ fields)
      :: !spans;
    id
  in
  let root =
    span ~parent:None ("workload/" ^ workload)
      [ ("untraced_wall_s", "[" ^ String.concat ", " (List.map num bare) ^ "]");
        ("traced_wall_s", "[" ^ String.concat ", " (List.map num wrapped) ^ "]");
      ]
  in
  List.iter
    (fun ((c : Cells.cell), (o : Forward.ops)) ->
      let cell = span ~parent:(Some root) ("cell/" ^ c.Cells.name) [] in
      List.iter
        (fun (op, (a : Forward.acc)) ->
          ignore
            (span ~parent:(Some cell) ("alloc/" ^ op)
               [ ("calls", num a.Forward.calls);
                 ("self_ns", num a.Forward.self_ns);
                 ("minor_words", num a.Forward.words);
                 ("sim_ns", num a.Forward.sim_ns);
               ]
              : int))
        [ ("malloc", o.Forward.malloc); ("free", o.Forward.free) ])
    cells;
  List.iter
    (fun (name, (p : Probes.t)) ->
      ignore
        (span ~parent:(Some root) ("probe/" ^ name)
           [ ("engine_ns_per_event", num p.Probes.engine_ns);
             ("mutex_ns_per_lock", num p.Probes.lock_ns);
             ("mutex_ns_per_handoff", num p.Probes.handoff_ns);
           ]
          : int))
    probes;
  Report.json_object
    [ ("workload", Report.json_string workload);
      ("seed", string_of_int seed);
      ("host", host);
      ( "wrapper_overhead",
        Report.json_object [ ("ns_per_call", num ovh_ns); ("words_per_call", num ovh_words) ] );
      ("spans", "[\n  " ^ String.concat ",\n  " (List.rev !spans) ^ "\n]");
    ]
