(** Flat tuple storage: one predicate's facts as rows of a single
    [int array].

    This is the one fact store of the system: the semi-naive engine
    ({!Engine}) joins over these relations, and every {!Database.t} —
    extensional databases and the models the engine returns — is a map
    from (predicate, arity) to one of them (see [docs/ARCHITECTURE.md]).
    All constants are interned symbols ({!Symbol.t}), so a fact of
    arity [k] is [k] consecutive ints in one growable backing array.
    Rows are deduplicated through an open-addressing hash table of row
    ids, and each column can carry a lazily built index from constant
    to the row ids holding it, kept up to date by {!add} once built.

    Words per row, without column indexes: [k] to [2k] in the backing
    array (it grows by doubling), plus 4/3 to 8/3 in the row table,
    one word per slot at a load factor between 3/8 and 3/4 (the table
    doubles when an insertion takes it past 3/4). A slot packs the row
    id with 31 bits of the row's hash, so a lookup reads row data only
    where the hash bits match.
    A column index is two flat [int array]s: an open-addressing slot
    table over the column's distinct constants, each slot packing the
    constant's last row and row count (2 to 4 words per distinct
    constant at a load factor of at most 1/2), and a per-row chain
    linking each row to the next row holding the same constant (1 to 2
    words per row, the array grows by doubling).

    A relation is not domain-safe for writes: only reads ({!find},
    {!mem}, {!get}, {!fact}, and {!bucket}, {!bucket_length} and {!iter_bucket}
    on a built index) may run on several domains at once. *)

type t
(** A relation: a bag-free set of same-arity rows over interned ints. *)

val create : arity:int -> t
(** An empty relation whose rows have [arity] columns ([arity >= 0]). *)

val arity : t -> int
(** Number of columns of every row. *)

val length : t -> int
(** Number of (distinct) rows. *)

val add : t -> int array -> int -> bool
(** [add rel buf off] inserts the row [buf.(off) .. buf.(off+arity-1)];
    returns [true] iff the row was not already present. Live column
    indexes are updated.
    @raise Invalid_argument when a new row would be the 2{^31}-th. *)

val append : t -> int array -> int -> bool
(** Like {!add} but {e without} updating live column indexes: the
    engine's write path during a semi-naive round. Rows appended this
    way are invisible to {!bucket} until {!reindex_range}
    replays them — exactly the round isolation the engine wants. Mixing
    [append] with probing and never calling {!reindex_range} leaves the
    indexes incomplete. *)

val reindex_range : t -> int -> int -> unit
(** [reindex_range rel lo hi] pushes rows [lo..hi-1] into every live
    column index, restoring the index invariant after a batch of
    {!append}s. Ticks [eval.index.entries] per live index. *)

val drop_index : t -> int -> unit
(** [drop_index rel col] discards the column-[col] index so subsequent
    inserts stop maintaining it. The engine drops indexes that only the
    first (full-evaluation) round probes. *)

val get : t -> int -> int -> int
(** [get rel row col] reads one cell. {b Unchecked} — this is the join
    runtime's innermost read, so callers must index rows they obtained
    from {!length} or {!iter_bucket} and columns below {!arity}. *)

val ensure_index : t -> int -> unit
(** [ensure_index rel col] builds the column-[col] index if absent:
    from each constant to the ids of the rows holding it at [col],
    maintained by subsequent {!add}s. Ticks the [eval.index.builds] /
    [eval.index.entries] metrics. *)

val bucket : t -> int -> int -> int
(** [bucket rel col v] is a handle on the column-[col] index bucket
    for [v] — the ids of the rows holding [v] at [col] — or a negative
    number when no row does. One hash lookup; {!bucket_length} and
    {!iter_bucket} read the bucket through the handle without a second
    one. A handle stays valid until the next write to that column's
    index ({!add}, {!reindex_range}, {!drop_index}). The column index
    must have been built. *)

val bucket_length : t -> int -> int -> int
(** [bucket_length rel col h] is the number of rows in bucket [h] of
    column [col]; 0 for a negative handle. *)

val iter_bucket : t -> int -> int -> (int -> unit) -> unit
(** [iter_bucket rel col h f] calls [f] on the row ids of bucket [h] of
    column [col] in ascending order; nothing for a negative handle.
    Rows added by [f] itself are not visited. *)

val find : t -> int array -> int -> int
(** [find rel buf off] is the id of the row [buf.(off) ..
    buf.(off+arity-1)], or -1 when it is absent: one open-addressing
    lookup in the row table, no column index needed. *)

val mem : t -> int array -> int -> bool
(** [mem rel buf off] is [find rel buf off >= 0]. *)

val fact : t -> pred:Symbol.t -> int -> Fact.t
(** Materializes row [row] as a {!Fact.t} of predicate [pred]. *)

val copy : t -> t
(** An independent relation with the same rows under the same ids, so
    in the same order. Column indexes are not copied; they are rebuilt
    on demand by {!ensure_index}. *)
