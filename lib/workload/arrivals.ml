module Rng = Mb_prng.Rng

type process =
  | Poisson of { rate_rps : float }
  | Bursty of { base_rps : float; burst_rps : float; on_s : float; off_s : float }
  | Diurnal of { low_rps : float; high_rps : float; period_s : float }

(* Written as [not (x > 0.)] so a NaN, which compares false against
   everything, is rejected too. *)
let validate = function
  | Poisson { rate_rps } ->
      if not (rate_rps > 0.) then invalid_arg "Arrivals: Poisson rate must be positive"
  | Bursty { base_rps; burst_rps; on_s; off_s } ->
      if not (base_rps > 0. && burst_rps > 0.) then invalid_arg "Arrivals: Bursty rates must be positive";
      if not (on_s > 0. && off_s > 0.) then invalid_arg "Arrivals: Bursty phases must be positive"
  | Diurnal { low_rps; high_rps; period_s } ->
      if not (low_rps > 0. && high_rps > 0.) then invalid_arg "Arrivals: Diurnal rates must be positive";
      if not (period_s > 0.) then invalid_arg "Arrivals: Diurnal period must be positive"

type t = { rng : Rng.t; process : process; mutable clock_ns : float }

let create ~rng process =
  validate process;
  { rng; process; clock_ns = 0. }

(* Instantaneous rate at absolute time [t_ns]. Bursty alternates between
   a burst phase and a base phase; diurnal ramps linearly low -> high ->
   low over each period (a triangle wave — the knee experiments need the
   load to cross the saturation point smoothly, not jump over it). *)
let rate_at p t_ns =
  match p with
  | Poisson { rate_rps } -> rate_rps
  | Bursty { base_rps; burst_rps; on_s; off_s } ->
      let period_ns = (on_s +. off_s) *. 1e9 in
      let phase = Float.rem t_ns period_ns in
      if phase < on_s *. 1e9 then burst_rps else base_rps
  | Diurnal { low_rps; high_rps; period_s } ->
      let period_ns = period_s *. 1e9 in
      let phase = Float.rem t_ns period_ns /. period_ns in
      let frac = 1. -. Float.abs ((2. *. phase) -. 1.) in
      low_rps +. ((high_rps -. low_rps) *. frac)

(* Exponential gap at the rate in force when the previous arrival
   happened — a piecewise-constant thinning-free approximation, exact
   for Poisson and accurate for the others whenever the phase length is
   long against the mean gap (the regimes the workloads use). *)
let next t =
  let rate = rate_at t.process t.clock_ns in
  let gap = Rng.exponential t.rng ~mean:(1e9 /. rate) in
  t.clock_ns <- t.clock_ns +. gap;
  t.clock_ns

let now_ns t = t.clock_ns

let mean_rps = function
  | Poisson { rate_rps } -> rate_rps
  | Bursty { base_rps; burst_rps; on_s; off_s } ->
      ((burst_rps *. on_s) +. (base_rps *. off_s)) /. (on_s +. off_s)
  | Diurnal { low_rps; high_rps; _ } -> (low_rps +. high_rps) /. 2.

let scale p f =
  if not (f > 0.) then invalid_arg "Arrivals.scale: factor must be positive";
  match p with
  | Poisson { rate_rps } -> Poisson { rate_rps = rate_rps *. f }
  | Bursty b -> Bursty { b with base_rps = b.base_rps *. f; burst_rps = b.burst_rps *. f }
  | Diurnal d -> Diurnal { d with low_rps = d.low_rps *. f; high_rps = d.high_rps *. f }

let to_string = function
  | Poisson { rate_rps } -> Printf.sprintf "poisson:%g" rate_rps
  | Bursty { base_rps; burst_rps; on_s; off_s } ->
      Printf.sprintf "bursty:%g:%g:%g:%g" base_rps burst_rps on_s off_s
  | Diurnal { low_rps; high_rps; period_s } ->
      Printf.sprintf "diurnal:%g:%g:%g" low_rps high_rps period_s

let of_string s =
  let num field v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Arrivals.of_string: bad %s %S" field v)
  in
  let p =
    match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
    | [ "poisson"; r ] -> Poisson { rate_rps = num "rate" r }
    | [ "bursty"; base; burst; on_s; off_s ] ->
        Bursty
          { base_rps = num "base rate" base;
            burst_rps = num "burst rate" burst;
            on_s = num "on seconds" on_s;
            off_s = num "off seconds" off_s;
          }
    | [ "diurnal"; low; high; period ] ->
        Diurnal
          { low_rps = num "low rate" low;
            high_rps = num "high rate" high;
            period_s = num "period seconds" period;
          }
    | _ ->
        invalid_arg
          (Printf.sprintf
             "Arrivals.of_string: %S (expected poisson:RATE, bursty:BASE:BURST:ON_S:OFF_S, or \
              diurnal:LOW:HIGH:PERIOD_S)"
             s)
  in
  validate p;
  p
