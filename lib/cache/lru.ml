type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* toward MRU *)
  mutable next : 'a node option;  (* toward LRU *)
}

type 'a t = {
  capacity : int;
  m : Mutex.t;  (* guards table and the recency list *)
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    m = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
  }

let locked t f =
  Mutex.lock t.m;
  let r = f () in
  Mutex.unlock t.m;
  r

let capacity t = t.capacity
let length t = locked t (fun () -> Hashtbl.length t.table)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some n ->
          unlink t n;
          push_front t n;
          Some n.value)

let add t key value =
  locked t (fun () ->
  match Hashtbl.find_opt t.table key with
  | Some n ->
      n.value <- value;
      unlink t n;
      push_front t n;
      None
  | None ->
      let evicted =
        if Hashtbl.length t.table >= t.capacity then
          match t.tail with
          | None -> None
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.key;
              Some lru.key
        else None
      in
      let n = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key n;
      push_front t n;
      evicted)
