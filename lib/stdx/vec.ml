type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 8) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len

let check t i op =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds [0,%d)" op i t.len)

let get t i = check t i "get"; t.data.(i)

let set t i v = check t i "set"; t.data.(i) <- v

let ensure t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do cap := !cap * 2 done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t v =
  ensure t (t.len + 1);
  t.data.(t.len) <- v;
  t.len <- t.len + 1;
  t.len - 1

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    let v = t.data.(t.len) in
    t.data.(t.len) <- t.dummy;
    Some v
  end

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  Array.fill t.data n (t.len - n) t.dummy;
  t.len <- n

let iter f t =
  for i = 0 to t.len - 1 do f t.data.(i) done

let iteri f t =
  for i = 0 to t.len - 1 do f i t.data.(i) done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do acc := f !acc t.data.(i) done;
  !acc

(* Built back to front: one list, no reversed copy. *)
let to_list t =
  let l = ref [] in
  for i = t.len - 1 downto 0 do l := t.data.(i) :: !l done;
  !l

let to_array t = Array.sub t.data 0 t.len

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)
