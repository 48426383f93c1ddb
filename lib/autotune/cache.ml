(* Persistent on-disk tuning cache: content-addressed, checksummed,
   atomic, and crash-proof on every load/store path.  See cache.mli. *)

module Diag = Augem_verify.Diag
module Faultpoint = Augem_resilience.Faultpoint

let magic = "AUGEM-TUNE-CACHE 1"

(* The fault-point catalog of the load/store/recover paths; registered
   up front so the chaos driver can enumerate them before first use. *)
let fp_read = "cache.read"
let fp_read_bytes = "cache.read.bytes"
let fp_store_tmp = "cache.store.tmp_created"
let fp_store_payload = "cache.store.payload"
let fp_store_written = "cache.store.written"
let fp_store_synced = "cache.store.synced"
let fp_store_renamed = "cache.store.renamed"
let fp_recover_scan = "cache.recover.scan"
let fp_recover_entry = "cache.recover.entry"

let fault_points =
  [
    fp_read; fp_read_bytes; fp_store_tmp; fp_store_payload; fp_store_written;
    fp_store_synced; fp_store_renamed; fp_recover_scan; fp_recover_entry;
  ]

let () = List.iter Faultpoint.register fault_points

let keydesc ~version ~arch ~kernel ~fingerprint =
  Printf.sprintf "tuner=%s arch=%s kernel=%s space=%s" version arch kernel
    fingerprint

let digest ~version ~arch ~kernel ~fingerprint =
  Digest.to_hex
    (Digest.string (magic ^ "\x00" ^ keydesc ~version ~arch ~kernel ~fingerprint))

let path ~dir ~digest = Filename.concat dir ("augem-tune-" ^ digest ^ ".cache")

let mk_diag ~arch ~kernel detail =
  Diag.make ~code:Diag.E_cache_corrupt ~stage:Diag.S_cache ~kernel ~arch
    ~config:"-" ~detail ()

type 'v load_result =
  | Hit of 'v
  | Miss
  | Corrupt of Diag.t

(* The three header lines preceding the marshalled payload. *)
let header ~keydesc ~payload =
  Printf.sprintf "%s\n%s\n%s\n" magic keydesc (Digest.to_hex (Digest.string payload))

(* Read and verify a cache file's plain-text header — magic, key
   description, payload checksum — WITHOUT unmarshalling the payload
   (safe on arbitrary bytes).  Returns the embedded key description and
   the raw payload. *)
let parse_file (file : string) : (string * string, string) result =
  match
    Faultpoint.wrap fp_read (fun () ->
        Faultpoint.corrupting fp_read_bytes
          (In_channel.with_open_bin file In_channel.input_all))
  with
  | exception e -> Error (Printexc.to_string e)
  | contents -> (
      (* split the three header lines off without touching the payload
         bytes (which are binary and may contain '\n') *)
      let line_end from =
        match String.index_from_opt contents from '\n' with
        | Some i -> Some (String.sub contents from (i - from), i + 1)
        | None -> None
      in
      match line_end 0 with
      | None -> Error "missing header"
      | Some (l1, p1) -> (
          match line_end p1 with
          | None -> Error "missing key line"
          | Some (l2, p2) -> (
              match line_end p2 with
              | None -> Error "missing checksum line"
              | Some (l3, p3) ->
                  let payload =
                    String.sub contents p3 (String.length contents - p3)
                  in
                  if not (String.equal l1 magic) then
                    Error (Printf.sprintf "bad magic %S" l1)
                  else if
                    not
                      (String.equal l3 (Digest.to_hex (Digest.string payload)))
                  then Error "payload checksum mismatch"
                  else Ok (l2, payload))))

let load ~dir ~arch ~kernel ~keydesc:kd ~digest =
  let file = path ~dir ~digest in
  if not (Sys.file_exists file) then Miss
  else
    let corrupt detail =
      Corrupt (mk_diag ~arch ~kernel (Printf.sprintf "%s: %s" file detail))
    in
    match parse_file file with
    | Error detail -> corrupt detail
    | Ok (kd', payload) ->
        if not (String.equal kd' kd) then
          (* digest collision or hand-edited file: the payload belongs
             to some other key (and maybe some other type) — do not
             unmarshal it *)
          corrupt (Printf.sprintf "key mismatch: %S" kd')
        else begin
          match Marshal.from_string payload 0 with
          | v -> Hit v
          | exception e -> corrupt (Printexc.to_string e)
        end

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if
      (not (String.equal parent dir))
      && not (String.equal parent Filename.current_dir_name)
    then ensure_dir parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> () (* lost a racing mkdir *)
  end

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* fsync the directory so the rename itself is durable; on filesystems
   that refuse to open a directory this is a no-op (rename atomicity
   still protects readers, we only lose durability of the publish). *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* The write protocol, fault-pointed at every step so the torture test
   can kill it between any two instructions:

     tmp created -> bytes written -> tmp fsynced -> renamed -> dir fsynced

   A crash before the rename leaves only a [.tmp] (quarantined by
   [recover]); a crash after leaves a fully-checksummed entry.  The
   entry bytes hit the disk before the rename publishes the name, so a
   torn entry can never appear under the final path. *)
let store ~dir ~arch ~kernel ~keydesc:kd ~digest v =
  match
    ensure_dir dir;
    let payload = Marshal.to_string v [] in
    let tmp = Filename.temp_file ~temp_dir:dir "augem-tune-" ".tmp" in
    (try
       Faultpoint.hit fp_store_tmp;
       (* a [Corrupt] trigger here models a torn write: the bytes that
          reach the tmp file are a mangled prefix *)
       let full =
         Faultpoint.corrupting fp_store_payload
           (header ~keydesc:kd ~payload ^ payload)
       in
       let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           write_all fd full 0 (String.length full);
           Faultpoint.hit fp_store_written;
           Unix.fsync fd);
       Faultpoint.hit fp_store_synced;
       Sys.rename tmp (path ~dir ~digest);
       Faultpoint.hit fp_store_renamed;
       fsync_dir dir
     with
    | Faultpoint.Injected _ as e ->
        (* a simulated kill: leave the debris exactly as a real crash
           would (an orphaned tmp, or a published-but-unsynced entry)
           for [recover] to deal with *)
        raise e
    | e ->
        (if Sys.file_exists tmp then
           try Sys.remove tmp with Sys_error _ -> ());
        raise e)
  with
  | () -> None
  | exception (Faultpoint.Injected _ as e) ->
      (* the simulated kill must propagate, not soften into a diag *)
      raise e
  | exception e ->
      Some (mk_diag ~arch ~kernel ("store failed: " ^ Printexc.to_string e))

(* --- cache directory inspection (the `augem cache` subcommand) --------- *)

let prefix = "augem-tune-"
let suffix = ".cache"

let is_cache_file (name : string) : bool =
  let base = Filename.basename name in
  String.length base > String.length prefix + String.length suffix
  && String.starts_with ~prefix base
  && Filename.check_suffix base suffix

type entry = {
  e_file : string;  (** full path *)
  e_bytes : int;  (** size on disk *)
  e_key : (string, string) result;
      (** the embedded key description, or why the file is unloadable *)
}

(* Header-verify the file without unmarshalling: a [validate]d entry is
   exactly one [load] would accept for its embedded key. *)
let validate (file : string) : (string, string) result =
  Result.map fst (parse_file file)

let entries ~(dir : string) : entry list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter is_cache_file
      |> List.sort String.compare
      |> List.map (fun name ->
             let file = Filename.concat dir name in
             let bytes =
               try
                 In_channel.with_open_bin file (fun ic ->
                     Int64.to_int (In_channel.length ic))
               with Sys_error _ -> 0
             in
             { e_file = file; e_bytes = bytes; e_key = validate file })

(* Remove every cache entry under [dir]; other files are left alone.
   Returns the number removed; unremovable files are skipped. *)
let clear ~(dir : string) : int =
  List.fold_left
    (fun n e ->
      match Sys.remove e.e_file with
      | () -> n + 1
      | exception Sys_error _ -> n)
    0 (entries ~dir)

(* --- crash recovery ---------------------------------------------------- *)

let quarantine_dirname = "quarantine"

let is_tmp_file (name : string) : bool =
  let base = Filename.basename name in
  String.starts_with ~prefix base && Filename.check_suffix base ".tmp"

type recovery = {
  rc_scanned : int;
  rc_valid : int;
  rc_quarantined : int;
  rc_tmp_quarantined : int;
  rc_diags : Diag.t list;
}

(* Move a suspect file out of the servable namespace.  Quarantining
   must itself be crash-safe: a rename failure degrades to removal, a
   removal failure to a diagnostic — never an exception. *)
let quarantine_file ~dir ~(diags : Diag.t list ref) ~arch ~kernel file : bool =
  let qdir = Filename.concat dir quarantine_dirname in
  match
    ensure_dir qdir;
    Sys.rename file (Filename.concat qdir (Filename.basename file))
  with
  | () -> true
  | exception _ -> (
      match Sys.remove file with
      | () -> true
      | exception e ->
          diags :=
            mk_diag ~arch ~kernel
              (Printf.sprintf "quarantine failed for %s: %s" file
                 (Printexc.to_string e))
            :: !diags;
          false)

(* Startup scan: quarantine orphaned write debris ([.tmp] files from a
   crashed store) and entries whose header or checksum no longer
   verifies (torn or bit-rotted), so nothing corrupt is ever even
   {i loadable} again.  Structured diagnostics, never an exception —
   an injected fault inside the scan degrades to a diag too. *)
let recover ?(arch = "-") ?(kernel = "-") ~(dir : string) () : recovery =
  let diags = ref [] in
  let quarantined = ref 0 in
  let tmp_quarantined = ref 0 in
  let scanned = ref 0 in
  let valid = ref 0 in
  (match
     Faultpoint.wrap fp_recover_scan (fun () -> Sys.readdir dir)
   with
  | exception Sys_error _ -> () (* no cache directory yet: nothing to do *)
  | exception e ->
      diags :=
        mk_diag ~arch ~kernel ("recover scan failed: " ^ Printexc.to_string e)
        :: !diags
  | names ->
      Array.iter
        (fun name ->
          let file = Filename.concat dir name in
          match
            Faultpoint.hit fp_recover_entry;
            if is_tmp_file name then begin
              if quarantine_file ~dir ~diags ~arch ~kernel file then begin
                incr tmp_quarantined;
                diags :=
                  mk_diag ~arch ~kernel
                    (Printf.sprintf "quarantined orphaned tmp %s" file)
                  :: !diags
              end
            end
            else if is_cache_file name then begin
              incr scanned;
              match validate file with
              | Ok _ -> incr valid
              | Error detail ->
                  if quarantine_file ~dir ~diags ~arch ~kernel file then begin
                    incr quarantined;
                    diags :=
                      mk_diag ~arch ~kernel
                        (Printf.sprintf "quarantined %s: %s" file detail)
                      :: !diags
                  end
            end
          with
          | () -> ()
          | exception e ->
              diags :=
                mk_diag ~arch ~kernel
                  (Printf.sprintf "recover skipped %s: %s" file
                     (Printexc.to_string e))
                :: !diags)
        names);
  {
    rc_scanned = !scanned;
    rc_valid = !valid;
    rc_quarantined = !quarantined;
    rc_tmp_quarantined = !tmp_quarantined;
    rc_diags = List.rev !diags;
  }
