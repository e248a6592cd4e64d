(** Global string interner.

    Constants, predicate names and variable names are interned to small
    integers so that facts can be hashed and compared cheaply everywhere
    else in the system (databases, supports, SAT variable maps). *)

type t = int
(** An interned symbol. Equal strings intern to equal integers. *)

val intern : string -> t
(** [intern s] returns the unique symbol for the string [s]. Ticks the
    [eval.intern.lookups] / [eval.intern.hits] / [eval.intern.symbols]
    metrics. *)

val intern_sub : string -> int -> int -> t
(** [intern_sub src off len] is [intern (String.sub src off len)], but
    allocates the name only when the slice was never interned before:
    the lexer interns identifiers straight out of the source text. Ticks
    the same metrics as {!intern}. *)

val name : t -> string
(** [name sym] is the string that was interned to [sym].
    @raise Invalid_argument if [sym] was never returned by {!intern}. *)

val to_string : t -> string
(** Alias of {!name}: [to_string (intern s) = s] for every [s]. *)

val fresh : string -> t
(** [fresh hint] creates a brand-new symbol whose printed name starts with
    [hint] and is distinct from every symbol interned so far. *)

val known : string -> bool
(** [known s] is [true] iff [s] has already been interned. *)

val count : unit -> int
(** Number of symbols interned so far. *)

val equal : t -> t -> bool
(** Integer equality — interning makes string equality this cheap. *)

val compare : t -> t -> int
(** Orders by interning time, {e not} alphabetically. *)

val pp : Format.formatter -> t -> unit
(** Prints the interned string ({!name}). *)
