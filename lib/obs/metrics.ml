(* Metrics registry: an int per slot of one program-wide table.

   [Names] fills the table while the program starts, before any registry
   exists; [create] freezes it.  So every registry is as long as the table,
   a slot always indexes inside it, and counting needs no bounds check. *)

type kind = Counter | Peak | Span
type slot = int
type t = int array

let names = ref [||]
let kinds = ref [||]
let frozen = ref false

let declare kind name =
  let fail why = invalid_arg (Printf.sprintf "Obs.Metrics.declare: %s %s" name why) in
  if !frozen then fail "after the first registry";
  if Array.mem name !names then fail "twice";
  names := Array.append !names [| name |];
  kinds := Array.append !kinds [| kind |];
  Array.length !names - 1

let create () =
  frozen := true;
  Array.make (Array.length !names) 0

let[@inline] incr (t : t) s = Array.unsafe_set t s (Array.unsafe_get t s + 1)
let[@inline] add (t : t) s n = Array.unsafe_set t s (Array.unsafe_get t s + n)
let[@inline] peak (t : t) s v = if v > Array.unsafe_get t s then Array.unsafe_set t s v
let[@inline] get (t : t) s = Array.unsafe_get t s

let merge ~(into : t) (src : t) =
  Array.iteri
    (fun s -> function
      | Counter | Span -> into.(s) <- into.(s) + src.(s)
      | Peak -> if src.(s) > into.(s) then into.(s) <- src.(s))
    !kinds

let copy = Array.copy

let sub (a : t) (b : t) =
  Array.mapi (fun s -> function Counter | Span -> a.(s) - b.(s) | Peak -> a.(s)) !kinds

let name s = !names.(s)

let find name =
  let rec go s =
    if s = Array.length !names then None
    else if String.equal !names.(s) name then Some s
    else go (s + 1)
  in
  go 0

let to_list (t : t) =
  List.sort compare (Array.to_list (Array.mapi (fun s name -> (name, t.(s))) !names))

let to_json t = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (to_list t))
let pp ppf t = List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %d@." k v) (to_list t)
