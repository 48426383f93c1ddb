(* Named, injectable fault points.  See faultpoint.mli. *)

exception Injected of string
exception Worker_kill of string

type action = Fail | Kill | Delay_ms of float | Corrupt of int

let action_to_string = function
  | Fail -> "fail"
  | Kill -> "kill"
  | Delay_ms ms -> Printf.sprintf "delay(%.0fms)" ms
  | Corrupt seed -> Printf.sprintf "corrupt(%d)" seed

type trigger = { tr_point : string; tr_hit : int; tr_action : action }

let trigger_to_string t =
  Printf.sprintf "%s@%d:%s" t.tr_point t.tr_hit (action_to_string t.tr_action)

(* One mutex guards all registry state.  Fault points sit on hot paths
   only in chaos/test builds conceptually, but the disarmed fast path
   is a single mutex-protected counter bump — nanoseconds against the
   I/O and sweeps the wrapped operations perform. *)
let m = Mutex.create ()
let catalog : (string, unit) Hashtbl.t = Hashtbl.create 32
let counts : (string, int ref) Hashtbl.t = Hashtbl.create 32
let armed : trigger list ref = ref []
let injected = ref 0
let sleeper : (float -> unit) ref = ref (fun _ -> ())

let register name =
  Mutex.protect m (fun () -> Hashtbl.replace catalog name ())

let points () =
  Mutex.protect m (fun () ->
      Hashtbl.fold (fun k () acc -> k :: acc) catalog []
      |> List.sort String.compare)

let hit_count name =
  Mutex.protect m (fun () ->
      match Hashtbl.find_opt counts name with Some r -> !r | None -> 0)

let injected_total () = Mutex.protect m (fun () -> !injected)

let arm triggers = Mutex.protect m (fun () -> armed := triggers)
let disarm () = Mutex.protect m (fun () -> armed := [])

let reset_counters () =
  Mutex.protect m (fun () ->
      Hashtbl.reset counts;
      injected := 0)

let set_sleeper f = Mutex.protect m (fun () -> sleeper := f)

(* Record a hit and return the matching armed action, if any.  The
   trigger fires on exactly its [tr_hit]-th hit of the point (1-based),
   so one schedule can target e.g. "the second disk read". *)
let observe (name : string) : action option =
  Mutex.protect m (fun () ->
      Hashtbl.replace catalog name ();
      let n =
        match Hashtbl.find_opt counts name with
        | Some r ->
            incr r;
            !r
        | None ->
            Hashtbl.replace counts name (ref 1);
            1
      in
      match
        List.find_opt
          (fun t -> String.equal t.tr_point name && t.tr_hit = n)
          !armed
      with
      | Some t ->
          (match t.tr_action with
          | Fail | Kill | Corrupt _ -> incr injected
          | Delay_ms _ -> ());
          Some t.tr_action
      | None -> None)

let hit (name : string) : unit =
  match observe name with
  | None -> ()
  | Some Fail -> raise (Injected name)
  | Some Kill -> raise (Worker_kill name)
  | Some (Delay_ms ms) -> !sleeper ms
  | Some (Corrupt _) ->
      (* a corrupt action on a control-flow point degenerates to a
         failure: there are no bytes to mangle *)
      raise (Injected name)

let wrap (name : string) (f : unit -> 'a) : 'a =
  hit name;
  f ()

(* Deterministic byte mangling: truncate to a seed-derived prefix and
   flip one byte, so a checksum over the result cannot hold.  The same
   (seed, input) always yields the same corruption. *)
let mangle ~seed (s : string) : string =
  let n = String.length s in
  if n = 0 then "\xff"
  else begin
    let mix = (seed * 2654435761) land 0x3FFFFFFF in
    let keep = 1 + (mix mod n) in
    let b = Bytes.of_string (String.sub s 0 keep) in
    let i = mix mod keep in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
    Bytes.to_string b
  end

let corrupting (name : string) (s : string) : string =
  match observe name with
  | None -> s
  | Some (Corrupt seed) -> mangle ~seed s
  | Some Fail -> raise (Injected name)
  | Some Kill -> raise (Worker_kill name)
  | Some (Delay_ms ms) ->
      !sleeper ms;
      s
