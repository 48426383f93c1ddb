(* Per-key circuit breaker.  See breaker.mli. *)

exception Open_circuit of string

type state =
  | Closed of int  (* consecutive failures so far *)
  | Open of float  (* opened at (clock time) *)
  | Half_open  (* cooldown elapsed; one probe is in flight *)

type t = {
  m : Mutex.t;
  keys : (string, state) Hashtbl.t;
  threshold : int;
  cooldown_s : float;
  now : unit -> float;
  mutable opened_total : int;
  mutable rejected_total : int;
}

let create ?(threshold = 3) ?(cooldown_s = 30.) ~now () : t =
  {
    m = Mutex.create ();
    keys = Hashtbl.create 16;
    threshold = max 1 threshold;
    cooldown_s;
    now;
    opened_total = 0;
    rejected_total = 0;
  }

let threshold t = t.threshold
let cooldown_s t = t.cooldown_s

type decision = Allow | Probe | Reject

let admit (t : t) (key : string) : decision =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find_opt t.keys key with
      | None | Some (Closed _) -> Allow
      | Some (Open since) ->
          if t.now () -. since >= t.cooldown_s then begin
            (* cooldown over: let exactly one probe through; everyone
               else keeps getting the fast degraded answer until the
               probe reports back *)
            Hashtbl.replace t.keys key Half_open;
            Probe
          end
          else begin
            t.rejected_total <- t.rejected_total + 1;
            Reject
          end
      | Some Half_open ->
          t.rejected_total <- t.rejected_total + 1;
          Reject)

let success (t : t) (key : string) : unit =
  Mutex.protect t.m (fun () -> Hashtbl.remove t.keys key)

let failure (t : t) (key : string) : unit =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find_opt t.keys key with
      | Some (Open _) -> ()
      | Some Half_open ->
          (* the probe failed: straight back to open, new cooldown *)
          t.opened_total <- t.opened_total + 1;
          Hashtbl.replace t.keys key (Open (t.now ()))
      | None | Some (Closed _) ->
          let n =
            match Hashtbl.find_opt t.keys key with
            | Some (Closed n) -> n + 1
            | _ -> 1
          in
          if n >= t.threshold then begin
            t.opened_total <- t.opened_total + 1;
            Hashtbl.replace t.keys key (Open (t.now ()))
          end
          else Hashtbl.replace t.keys key (Closed n))

let state_name (t : t) (key : string) : string =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find_opt t.keys key with
      | None | Some (Closed _) -> "closed"
      | Some (Open _) -> "open"
      | Some Half_open -> "half_open")

let open_now (t : t) : int =
  Mutex.protect t.m (fun () ->
      Hashtbl.fold
        (fun _ s acc ->
          match s with Open _ | Half_open -> acc + 1 | Closed _ -> acc)
        t.keys 0)

let opened_total (t : t) : int = Mutex.protect t.m (fun () -> t.opened_total)

let rejected_total (t : t) : int =
  Mutex.protect t.m (fun () -> t.rejected_total)
