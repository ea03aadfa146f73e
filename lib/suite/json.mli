(** A minimal JSON value: just enough for the session history.

    The history file is plain JSON written by this repo, so the parser
    only has to be {e correct}, not lenient: it reads standard JSON
    (objects, arrays, strings with escapes, numbers, booleans, null)
    and rejects everything else with a character position. Object
    field order is preserved, which keeps appended history files
    diff-friendly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed). [Error]
    messages carry the byte offset of the failure. *)

val to_string : ?indent:int -> t -> string
(** Renders the value. With [~indent] (spaces per level) objects and
    arrays are pretty-printed over multiple lines; without it the
    output is a single line. Numbers print with up to 12 significant
    digits — enough for the ns/run and word counts we store — and
    integral values print without a decimal point. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the field's value; [None] on a missing
    field or a non-object. *)

val to_float : t -> float option
(** [Num]s and nothing else. *)

val to_int : t -> int option
(** [Num]s with an integral value. *)

val to_str : t -> string option

val to_list : t -> t list option
(** [Arr]s and nothing else. *)
