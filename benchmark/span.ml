(* Spans of the traced run.

   The benchmark records spans around its own calls into each layer
   (the program itself is not instrumented): a name, start and end on
   the monotonic clock, the enclosing span and the request or shape id
   the work belongs to.  Spans stay in memory and are written as JSONL
   once the run ends.  A recorder belongs to one thread; concurrent
   clients each keep their own, with disjoint id ranges. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  rid : int;  (** request or shape id *)
  t0 : int;  (** monotonic ns *)
  t1 : int;
}

type t = {
  mutable spans : span list;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable next : int;
}

let create ?(base = 0) () = { spans = []; stack = []; next = base }
let now () : int = Int64.to_int (Augem.Jit.Clock.now_ns ())

(* Run [f] inside a span whose name [f] decides once it has finished
   (a served request's layer depends on the cache tier that answered). *)
let span_named (r : t) ~(rid : int) (f : unit -> 'a * string) : 'a =
  let id = r.next in
  r.next <- id + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let close name t0 =
    let t1 = now () in
    r.stack <- List.tl r.stack;
    r.spans <- { id; parent; name; rid; t0; t1 } :: r.spans
  in
  let t0 = now () in
  match f () with
  | v, name ->
      close name t0;
      v
  | exception e ->
      close "error" t0;
      raise e

let span (r : t) ~(name : string) ~(rid : int) (f : unit -> 'a) : 'a =
  span_named r ~rid (fun () -> (f (), name))

let spans (rs : t list) : span list = List.concat_map (fun r -> r.spans) rs

(* Per-name self time and call count.  A span's self time is its
   duration minus the part of it its children cover. *)
type summary = {
  self_ns : (string, int) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
  root_ns : int;  (** sum of root-span durations: the traced total *)
}

let summarize (spans : span list) : summary =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  let self_ns = Hashtbl.create 32 and calls = Hashtbl.create 32 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let root_ns = ref 0 in
  List.iter
    (fun s ->
      let kids =
        List.sort
          (fun a b -> compare a.t0 b.t0)
          (Hashtbl.find_all children s.id)
      in
      (* union of the children's intervals, clipped to this span *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) c ->
            let lo = max (max c.t0 s.t0) reach and hi = min c.t1 s.t1 in
            if hi > lo then (acc + (hi - lo), hi) else (acc, reach))
          (0, s.t0) kids
      in
      bump self_ns s.name (s.t1 - s.t0 - covered);
      bump calls s.name 1;
      if s.parent < 0 then root_ns := !root_ns + (s.t1 - s.t0))
    spans;
  { self_ns; calls; root_ns = !root_ns }

let self_ns (s : summary) name =
  Option.value ~default:0 (Hashtbl.find_opt s.self_ns name)

let calls (s : summary) name =
  Option.value ~default:0 (Hashtbl.find_opt s.calls name)

(* Sum of every span's self time: equals [root_ns] when children nest
   inside their parents. *)
let accounted_ns (s : summary) = Hashtbl.fold (fun _ v acc -> acc + v) s.self_ns 0

let write_jsonl (path : string) (spans : span list) : unit =
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) spans in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Augem.Json.to_string
               (Augem.Json.Obj
                  [
                    ("id", Augem.Json.Int s.id);
                    ("parent", Augem.Json.Int s.parent);
                    ("name", Augem.Json.String s.name);
                    ("rid", Augem.Json.Int s.rid);
                    ("start_ns", Augem.Json.Int s.t0);
                    ("end_ns", Augem.Json.Int s.t1);
                  ]));
          output_char oc '\n')
        spans)
