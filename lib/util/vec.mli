(** Growable arrays (OCaml 5.1 has no [Dynarray]).

    A thin imperative vector used throughout the solver and the Datalog
    engine for append-heavy workloads. Not thread-safe. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element. @raise Invalid_argument if empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
(** Logical clear; keeps the backing storage. *)

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val of_array : 'a array -> 'a t
val copy : 'a t -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live prefix. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)
