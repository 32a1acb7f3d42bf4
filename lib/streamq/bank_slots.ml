module Labels = Hashtbl.Make (String)

type back = {
  mutable keys : int array array;  (* per slot: the keys it is filed under *)
  mutable pos : int array array;  (* per slot: its index under each key *)
}

type t = {
  labels : int Labels.t;
  mutable members : int array array;
  mutable len : int array;
  back : back;
  mutable free : int list;
  mutable used : int;
  mutable live : int;
}

let create () =
  {
    labels = Labels.create 16;
    members = [||];
    len = [||];
    back = { keys = [||]; pos = [||] };
    free = [];
    used = 0;
    live = 0;
  }

let intern t l =
  match Labels.find_opt t.labels l with
  | Some id -> id
  | None ->
    let id = Labels.length t.labels + 1 in
    Labels.add t.labels l id;
    id

let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let reserve_keys t k =
  let cap = Array.length t.len in
  if k >= cap then begin
    let cap = max (k + 1) (2 * cap) in
    t.members <- extend t.members cap [||];
    t.len <- extend t.len cap 0
  end

let reserve_slots b s =
  let cap = Array.length b.keys in
  if s >= cap then begin
    let cap = max (s + 1) (2 * cap) in
    b.keys <- extend b.keys cap [||];
    b.pos <- extend b.pos cap [||]
  end

let push t k slot =
  reserve_keys t k;
  let n = t.len.(k) in
  if n = Array.length t.members.(k) then t.members.(k) <- extend t.members.(k) (max 4 (2 * n)) 0;
  t.members.(k).(n) <- slot;
  t.len.(k) <- n + 1;
  n

let add t keys =
  let slot =
    match t.free with
    | s :: rest ->
      t.free <- rest;
      s
    | [] ->
      t.used <- t.used + 1;
      t.used - 1
  in
  let b = t.back in
  reserve_slots b slot;
  b.keys.(slot) <- keys;
  b.pos.(slot) <- Array.map (fun k -> push t k slot) keys;
  t.live <- t.live + 1;
  slot

(* swap each key's last member into the leaver's place, then point the
   moved slot's back-pointer for that key at it *)
let remove t slot =
  let b = t.back in
  let keys = b.keys.(slot) and pos = b.pos.(slot) in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) and p = pos.(i) in
    let last = t.len.(k) - 1 in
    let moved = t.members.(k).(last) in
    t.members.(k).(p) <- moved;
    t.len.(k) <- last;
    if moved <> slot then begin
      let mk = b.keys.(moved) in
      for i' = 0 to Array.length mk - 1 do
        if mk.(i') = k then b.pos.(moved).(i') <- p
      done
    end
  done;
  b.keys.(slot) <- [||];
  b.pos.(slot) <- [||];
  t.free <- slot :: t.free;
  t.live <- t.live - 1
