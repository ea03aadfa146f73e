(* Output helpers: order statistics, the host block, and the JSON the
   benchmark prints as its last line. *)

(* Linear-interpolated quantile of a non-empty list, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile of an empty list";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit a double carries; JSON has no NaN or infinity, so a
   non-finite value is a bug in the caller. *)
let json_number x =
  if not (Float.is_finite x) then invalid_arg (Printf.sprintf "non-finite metric value %f" x);
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

type metric = { name : string; value : float; unit : string }

let result_line ~correct ~attempted ~failed metrics =
  json_object
    [ ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_object
          (List.map
             (fun m ->
               (m.name, json_object [ ("value", json_number m.value); ("unit", json_string m.unit) ]))
             metrics) );
    ]

(* --- host block ---------------------------------------------------------- *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> scan ())
      in
      let model = scan () in
      close_in ic;
      model

(* The commit is handed in by run.py, which can ask git; a source
   checkout without git history reports a digest of the sources. *)
let host_block () =
  json_object
    [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("cpu_model", json_string (cpu_model ()));
      ("ocaml", json_string Sys.ocaml_version);
      ( "commit",
        json_string (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown") );
    ]
