open Datalog
open Provenance

module type S = sig
  type t

  val zero : t
  val one : t
  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Boolean = struct
  type t = bool

  let zero = false
  let one = true
  let plus = ( || )
  let times = ( && )
  let equal = Bool.equal
  let pp = Format.pp_print_bool
end

module Counting = struct
  type t = int

  let cap = 1_000_000_000

  let zero = 0
  let one = 1
  let plus a b = if a > cap - b then cap else a + b
  let times a b = if a > 0 && b > cap / a then cap else a * b
  let equal = Int.equal
  let pp ppf n = if n >= cap then Format.pp_print_string ppf "∞" else Format.pp_print_int ppf n

  let of_int n = max 0 (min n cap)
  let to_string n = if n >= cap then "∞" else string_of_int n
  let saturated n = n >= cap
end

module Tropical = struct
  type t = float (* +∞ = underivable *)

  let zero = Float.infinity
  let one = 0.0
  let plus = Float.min
  let times = ( +. )
  let equal = Float.equal
  let pp ppf v =
    if v = Float.infinity then Format.pp_print_string ppf "∞"
    else Format.fprintf ppf "%g" v

  let finite v = v
  let infinity = Float.infinity
  let to_float v = v
end

module Witness = struct
  module Family = Set.Make (struct
    type t = Fact.Set.t

    let compare = Fact.Set.compare
  end)

  type t = Family.t

  let zero = Family.empty
  let one = Family.singleton Fact.Set.empty
  let plus = Family.union

  let times a b =
    Family.fold
      (fun sa acc ->
        Family.fold (fun sb acc -> Family.add (Fact.Set.union sa sb) acc) b acc)
      a Family.empty

  let equal = Family.equal
  let of_fact f = Family.singleton (Fact.Set.singleton f)
  let members t = Family.elements t

  let pp ppf t =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         Fact.pp_set)
      (members t)
end

module Eval (Semiring : S) = struct
  let provenance ?(annotate = fun _ -> Semiring.one) closure =
    let program = Closure.program closure in
    let values : Semiring.t Fact.Table.t = Fact.Table.create 256 in
    let value_of fact =
      match Fact.Table.find_opt values fact with
      | Some v -> v
      | None -> Semiring.zero
    in
    (* Database facts are leaves with their annotation. *)
    Array.iter
      (fun fact ->
        if Program.is_edb program (Fact.pred fact) then
          Fact.Table.replace values fact (annotate fact))
      (Closure.nodes closure);
    (* Kleene iteration to the least fixpoint. *)
    let changed = ref true in
    let rounds = ref 0 in
    while !changed do
      changed := false;
      incr rounds;
      if !rounds > 100_000 then
        invalid_arg "Semiring.Eval.provenance: iteration did not converge";
      Array.iter
        (fun fact ->
          if Program.is_idb program (Fact.pred fact) then begin
            let value =
              Array.fold_left
                (fun acc (edge : Closure.hyperedge) ->
                  let product =
                    List.fold_left
                      (fun acc b -> Semiring.times acc (value_of b))
                      Semiring.one edge.Closure.body
                  in
                  Semiring.plus acc product)
                Semiring.zero
                (Closure.hyperedges_of closure fact)
            in
            if not (Semiring.equal value (value_of fact)) then begin
              Fact.Table.replace values fact value;
              changed := true
            end
          end)
        (Closure.nodes closure)
    done;
    value_of (Closure.root closure)

  let provenance_of ?annotate program db fact =
    provenance ?annotate (Closure.build program db fact)
end
