(** Sorted ring with a heap overflow over [(key, pk)] pairs — the event
    queue behind {!Engine}.

    [key] is a simulated time encoded with {!key_of_time} (an
    order-preserving integer image of the float); [pk] is an opaque
    tie-break whose integer order must encode the engine's sequence
    order. Pops deliver pairs in exact lexicographic [(key, pk)] order —
    identical to a sorted list, which is what the property tests check
    it against.

    Internally: a sorted ring buffer serves the near future in O(1)
    peek/pop and near-O(1) push; a plain 4-ary min-heap takes every push
    the ring cannot hold and refills the ring when it drains. *)

type t = {
  mutable rkeys : int array;  (** sorted ring: time keys *)
  mutable rpks : int array;   (** sorted ring: tie-breaks *)
  mutable rhead : int;        (** physical index of the ring head *)
  mutable rsize : int;
  mutable gate : int;
      (** every ring key is below it, every heap key at or above it *)
  mutable hkeys : int array;  (** overflow heap: time keys *)
  mutable hpks : int array;   (** overflow heap: tie-breaks *)
  mutable hsize : int;
  mutable ring_hits : int;
  mutable heap_spills : int;
}
(** The representation is exposed for {!Engine}'s hot path: one push and
    one pop per simulated event cannot afford call boundaries, so the
    engine reads the ring head and retires ring items with
    direct field access, calling into this module only to sort-insert
    ({!ring_insert}), to spill past the gate ({!push_overflow}) and to
    refill an empty ring ({!refill}). Everyone else should treat the
    type as abstract and use {!push}/{!peek_key}/{!pop}. *)

val create : unit -> t

val ring_target : int
(** Soft ring-size bound: while the heap is empty, appends grow the
    ring up to this size before overflowing into the heap. *)

val key_of_time : float -> int
(** Order-preserving integer encoding of a non-negative time. *)

val time_of_key : int -> float
(** Inverse of {!key_of_time}. *)

val push : t -> int -> int -> unit
(** [push t key pk] files one item. *)

val ring_insert : t -> int -> int -> unit
(** Sorted-insert into the ring, growing it if full and bumping the
    gate on a tail append. Hot-path building block: the caller has
    already decided the item belongs in the ring ([key < gate], or the
    heap is empty). *)

val push_overflow : t -> int -> int -> unit
(** Spill an item the caller has ruled out of the ring ([key >= gate],
    ring non-empty) onto the heap. *)

val refill : t -> unit
(** Refill an empty ring from the heap. Precondition: [rsize = 0] and
    [hsize > 0]. Postcondition: [rsize > 0]. *)

val peek_key : t -> int
(** Key of the minimum item, or [max_int] when empty — the sentinel
    lets a caller compare heads without an emptiness branch ([max_int] never encodes a real time: it would be a NaN). *)

val peek_pk : t -> int
(** Tie-break of the minimum item, or [max_int] when empty. *)

val pop : t -> unit
(** Drop the minimum item (read it first via the peeks). Precondition:
    not empty. *)

val length : t -> int
val is_empty : t -> bool

val ring_hits : t -> int
(** Pushes that went straight into the sorted ring (fast path). *)

val heap_spills : t -> int
(** Pushes that overflowed onto the heap. *)
