(* The host record every result carries, and the process-wide settings
   the benchmark pins so that nothing left in the environment changes
   what a run measures. *)

module A = Augem
module Json = A.Json

(* A persistent tuning cache would make [Blocked.plan] and the served
   sweeps depend on what an earlier process left on disk, and
   AUGEM_JOBS would change sweep parallelism: both are overridden,
   whatever the environment says. *)
let pin () =
  A.Tuner.set_cache_dir None;
  A.Tuner.set_jobs 1

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let cache_size level =
  match
    read_file
      (Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/size" level)
  with
  | Some s -> String.trim s
  | None -> "unknown"

(* The commit checked out in the working directory, read from [.git]
   without running git; "unknown" outside a git checkout. *)
let git_revision () =
  let ref_of_packed r =
    match read_file ".git/packed-refs" with
    | None -> None
    | Some p ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ sha; name ] when name = r -> Some sha
            | _ -> None)
          (String.split_on_char '\n' p)
  in
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some sha -> String.trim sha
      | None -> Option.value ~default:"unknown" (ref_of_packed r))
  | Some sha -> sha

(* Peak resident set (VmHWM) of this process so far, in MiB. *)
let peak_rss_mib () : float =
  let from_status s =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
            match String.split_on_char ' ' (String.trim v) with
            | kb :: _ -> Option.map (fun kb -> kb /. 1024.) (float_of_string_opt kb)
            | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  match Option.bind (read_file "/proc/self/status") from_status with
  | Some mib -> mib
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let record ~(seed : int) : Json.t =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ( "host_features",
        Json.Obj
          (List.map
             (fun (n, b) -> (n, Json.Bool b))
             (A.Native_check.host_features ())) );
      ("native_supported", Json.Bool (A.Native_check.host_supported ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("l2", Json.String (cache_size 2));
      ("l3", Json.String (cache_size 3));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_revision", Json.String (git_revision ()));
      ( "pinned",
        Json.Obj
          [
            ("cache_dir", Json.Null);
            ("jobs", Json.Int (A.Tuner.jobs ()));
          ] );
    ]
