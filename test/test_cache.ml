(* The persistent tuning cache: content addressing (any key component
   change is a miss), corrupt-file tolerance (a bad file is a miss plus
   a structured diagnostic, never a crash), atomicity under concurrent
   writers, and the fallback-poisoning rule (fell_back results are
   never memoized or persisted). *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner
module Cache = A.Tuning_cache
module Pipeline = A.Transform.Pipeline
module Diag = A.Verify.Diag

let fresh_dir () = Filename.temp_dir "augem-cache-test" ""

let key ?(version = "v1") ?(arch = "snb") ?(kernel = "gemm") ?(fp = "aaaa") ()
    =
  ( Cache.keydesc ~version ~arch ~kernel ~fingerprint:fp,
    Cache.digest ~version ~arch ~kernel ~fingerprint:fp )

let store_ok ~dir ~keydesc ~digest v =
  match Cache.store ~dir ~arch:"snb" ~kernel:"gemm" ~keydesc ~digest v with
  | None -> ()
  | Some d -> Alcotest.failf "store failed: %s" (Diag.to_string d)

let load ~dir ~keydesc ~digest : string Cache.load_result =
  Cache.load ~dir ~arch:"snb" ~kernel:"gemm" ~keydesc ~digest

let test_roundtrip_and_digest_miss () =
  let dir = fresh_dir () in
  let keydesc, digest = key () in
  store_ok ~dir ~keydesc ~digest "payload-one";
  (match load ~dir ~keydesc ~digest with
  | Cache.Hit v -> Alcotest.(check string) "roundtrip" "payload-one" v
  | Cache.Miss -> Alcotest.fail "expected hit, got miss"
  | Cache.Corrupt d -> Alcotest.failf "expected hit: %s" (Diag.to_string d));
  (* each key component moves the content address: all misses *)
  List.iter
    (fun (what, (kd, dg)) ->
      match load ~dir ~keydesc:kd ~digest:dg with
      | Cache.Miss -> ()
      | Cache.Hit _ -> Alcotest.failf "%s change must miss" what
      | Cache.Corrupt d ->
          Alcotest.failf "%s change must miss, got corrupt: %s" what
            (Diag.to_string d))
    [
      ("arch", key ~arch:"piledriver" ());
      ("kernel", key ~kernel:"gemv" ());
      ("fingerprint", key ~fp:"bbbb" ());
      ("version", key ~version:"v2" ());
    ]

let expect_corrupt what = function
  | Cache.Corrupt d ->
      Alcotest.(check string)
        (what ^ " classified cache-corrupt")
        (Diag.code_to_string Diag.E_cache_corrupt)
        (Diag.code_to_string d.Diag.d_code);
      Alcotest.(check string)
        (what ^ " at the cache stage")
        (Diag.stage_to_string Diag.S_cache)
        (Diag.stage_to_string d.Diag.d_stage)
  | Cache.Hit _ -> Alcotest.failf "%s: expected corrupt, got hit" what
  | Cache.Miss -> Alcotest.failf "%s: expected corrupt, got miss" what

let test_corrupt_files_are_tolerated () =
  let dir = fresh_dir () in
  let keydesc, digest = key () in
  let file = Cache.path ~dir ~digest in
  let write contents =
    Out_channel.with_open_bin file (fun oc ->
        Out_channel.output_string oc contents)
  in
  (* plain garbage *)
  write "not a cache file at all";
  expect_corrupt "garbage" (load ~dir ~keydesc ~digest);
  (* a valid entry truncated mid-payload *)
  store_ok ~dir ~keydesc ~digest (String.concat "," (List.init 200 string_of_int));
  let valid = In_channel.with_open_bin file In_channel.input_all in
  write (String.sub valid 0 (String.length valid - 7));
  expect_corrupt "truncation" (load ~dir ~keydesc ~digest);
  (* a valid entry whose payload bytes were flipped: checksum catches it *)
  let flipped = Bytes.of_string valid in
  Bytes.set flipped
    (Bytes.length flipped - 3)
    (Char.chr (Char.code (Bytes.get flipped (Bytes.length flipped - 3)) lxor 0xFF));
  write (Bytes.to_string flipped);
  expect_corrupt "bit flip" (load ~dir ~keydesc ~digest);
  (* a file written under another key landing on this digest (collision
     or hand-copied file): the embedded key description rejects it *)
  let other_kd, _ = key ~kernel:"gemv" () in
  store_ok ~dir ~keydesc:other_kd ~digest "foreign";
  expect_corrupt "key mismatch" (load ~dir ~keydesc ~digest);
  (* and after all of that, a fresh store heals the entry *)
  store_ok ~dir ~keydesc ~digest "healed";
  match load ~dir ~keydesc ~digest with
  | Cache.Hit v -> Alcotest.(check string) "healed" "healed" v
  | _ -> Alcotest.fail "store after corruption must hit"

let test_tuned_persists_and_survives_corruption () =
  let dir = fresh_dir () in
  let arch = Arch.sandy_bridge in
  (* the in-memory memo is process-wide and other suites may already
     hold the default (arch, kernel, space) key — in which case tuned
     answers from memory and never touches disk.  Reversing the space
     keeps it healthy but gives this test its own content address. *)
  let space = List.rev (Tuner.space_for Kernels.Gemv) in
  let r1 = Tuner.tuned ~cache_dir:dir ~space arch Kernels.Gemv in
  Alcotest.(check bool) "healthy sweep" false r1.Tuner.fell_back;
  let fingerprint = Tuner.space_fingerprint space in
  let keydesc =
    Cache.keydesc ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"gemv" ~fingerprint
  in
  let digest =
    Cache.digest ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"gemv" ~fingerprint
  in
  let file = Cache.path ~dir ~digest in
  Alcotest.(check bool) "cache file written" true (Sys.file_exists file);
  (match
     Cache.load ~dir ~arch:arch.Arch.name ~kernel:"gemv" ~keydesc ~digest
   with
  | Cache.Hit (r : Tuner.result) ->
      Alcotest.(check (float 0.0))
        "persisted result carries the score" r1.Tuner.best_score
        r.Tuner.best_score
  | _ -> Alcotest.fail "expected a disk hit");
  (* corrupt the file: tuned must neither crash nor trust it *)
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc "scribbled over");
  let r2 = Tuner.tuned ~cache_dir:dir ~space arch Kernels.Gemv in
  Alcotest.(check (float 0.0))
    "same result after corruption" r1.Tuner.best_score r2.Tuner.best_score;
  (* r2 came from the in-memory memo (same process), so the corrupt
     file was not even read; evict nothing and probe the disk layer
     directly to confirm it reads corrupt *)
  (match
     Cache.load ~dir ~arch:arch.Arch.name ~kernel:"gemv" ~keydesc ~digest
   with
  | Cache.Corrupt _ -> ()
  | _ -> Alcotest.fail "scribbled file must read corrupt")

let test_concurrent_writers_leave_valid_file () =
  let dir = fresh_dir () in
  let keydesc, digest = key ~kernel:"race" () in
  let payload = String.concat "-" (List.init 500 string_of_int) in
  let writer () =
    for _ = 1 to 30 do
      (match
         Cache.store ~dir ~arch:"snb" ~kernel:"race" ~keydesc ~digest payload
       with
      | None -> ()
      | Some d -> Alcotest.failf "racing store failed: %s" (Diag.to_string d));
      match load ~dir ~keydesc ~digest with
      | Cache.Hit _ | Cache.Miss -> ()
      | Cache.Corrupt d ->
          Alcotest.failf "reader saw a torn file: %s" (Diag.to_string d)
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
  writer ();
  Domain.join d1;
  Domain.join d2;
  match load ~dir ~keydesc ~digest with
  | Cache.Hit (v : string) -> Alcotest.(check string) "final file valid" payload v
  | _ -> Alcotest.fail "expected a valid final file"

(* Two domains racing through the full memoized path on one key: the
   mutex-guarded memo and the atomic store must leave a valid entry. *)
let test_concurrent_tuned_same_key () =
  let dir = fresh_dir () in
  let arch = Arch.piledriver in
  (* reversed space: a content address no other suite has memoized, so
     both domains really go through the full compute-and-store path *)
  let space = List.rev (Tuner.space_for Kernels.Scal) in
  let t1 =
    Domain.spawn (fun () -> Tuner.tuned ~cache_dir:dir ~space arch Kernels.Scal)
  in
  let t2 =
    Domain.spawn (fun () -> Tuner.tuned ~cache_dir:dir ~space arch Kernels.Scal)
  in
  let r1 = Domain.join t1 and r2 = Domain.join t2 in
  Alcotest.(check (float 0.0))
    "both domains agree" r1.Tuner.best_score r2.Tuner.best_score;
  let fingerprint = Tuner.space_fingerprint space in
  let keydesc =
    Cache.keydesc ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"scal" ~fingerprint
  in
  let digest =
    Cache.digest ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"scal" ~fingerprint
  in
  match
    Cache.load ~dir ~arch:arch.Arch.name ~kernel:"scal" ~keydesc ~digest
  with
  | Cache.Hit (r : Tuner.result) ->
      Alcotest.(check (float 0.0))
        "persisted entry matches" r1.Tuner.best_score r.Tuner.best_score
  | Cache.Miss -> Alcotest.fail "no cache file after racing tuned calls"
  | Cache.Corrupt d -> Alcotest.failf "torn cache file: %s" (Diag.to_string d)

(* The fallback-poisoning bugfix: a sweep that degraded to the safe
   baseline (hostile caller-supplied space) must be neither memoized
   nor persisted, and must not shadow the healthy default-space
   entry. *)
let hostile_space =
  List.map
    (fun j ->
      {
        Tuner.cand_config =
          { Pipeline.default with jam = [ ("j", j); ("i", 64) ] };
        cand_opts = A.Codegen.Emit.default_options;
      })
    [ 32; 64 ]

let test_fell_back_never_cached () =
  let dir = fresh_dir () in
  let arch = Arch.sandy_bridge in
  let r1 = Tuner.tuned ~cache_dir:dir ~space:hostile_space arch Kernels.Gemm in
  Alcotest.(check bool) "hostile space fell back" true r1.Tuner.fell_back;
  (* not memoized: a second call re-tunes (distinct result object)
     rather than replaying the poisoned one *)
  let r2 = Tuner.tuned ~cache_dir:dir ~space:hostile_space arch Kernels.Gemm in
  Alcotest.(check bool) "fallback not memoized" false (r1 == r2);
  (* not persisted: no disk entry under the hostile fingerprint *)
  let fingerprint = Tuner.space_fingerprint hostile_space in
  let keydesc =
    Cache.keydesc ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"gemm" ~fingerprint
  in
  let digest =
    Cache.digest ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"gemm" ~fingerprint
  in
  (match
     Cache.load ~dir ~arch:arch.Arch.name ~kernel:"gemm" ~keydesc ~digest
   with
  | Cache.Miss -> ()
  | Cache.Hit _ -> Alcotest.fail "fallback result was persisted"
  | Cache.Corrupt d -> Alcotest.failf "unexpected: %s" (Diag.to_string d));
  (* and a healthy default-space sweep on the same (arch, kernel) is
     untouched by the hostile one *)
  let healthy = Tuner.tuned ~cache_dir:dir arch Kernels.Gemm in
  Alcotest.(check bool) "default space unaffected" false
    healthy.Tuner.fell_back;
  Alcotest.(check bool) "healthy result, not the baseline" true
    (healthy.Tuner.best_score > 0.)

(* A fallback entry planted on disk (foreign writer, older tuner) must
   be ignored on load, not replayed. *)
let test_planted_fallback_entry_ignored () =
  let dir = fresh_dir () in
  let arch = Arch.sandy_bridge in
  let fallback = Tuner.tune ~space:hostile_space arch Kernels.Gemm in
  Alcotest.(check bool) "planted result fell back" true
    fallback.Tuner.fell_back;
  (* plant it under the DEFAULT space's content address *)
  let fingerprint = Tuner.space_fingerprint (Tuner.space_for Kernels.Gemm) in
  let keydesc =
    Cache.keydesc ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"gemm" ~fingerprint
  in
  let digest =
    Cache.digest ~version:Tuner.tuner_version ~arch:arch.Arch.name
      ~kernel:"gemm" ~fingerprint
  in
  store_ok ~dir ~keydesc ~digest fallback;
  let r = Tuner.tuned ~cache_dir:dir arch Kernels.Gemm in
  Alcotest.(check bool) "planted fallback ignored" false r.Tuner.fell_back;
  Alcotest.(check bool) "re-tuned to a real winner" true
    (r.Tuner.best_score > 0.)

(* The `augem cache` inspection surface: [entries] lists only cache
   files (sorted, sized, header-validated without unmarshalling),
   [validate] agrees with what [load] would accept, and [clear] removes
   exactly the cache entries. *)
let test_entries_validate_clear () =
  let dir = fresh_dir () in
  Alcotest.(check int) "empty dir" 0 (List.length (Cache.entries ~dir));
  Alcotest.(check int) "missing dir" 0
    (List.length (Cache.entries ~dir:(Filename.concat dir "nope")));
  let keydesc, digest = key () in
  store_ok ~dir ~keydesc ~digest "payload-one";
  let keydesc2, digest2 = key ~kernel:"gemv" () in
  store_ok ~dir ~keydesc:keydesc2 ~digest:digest2 "payload-two";
  (* a corrupt entry and a foreign file *)
  let bad = Cache.path ~dir ~digest:"feedfacefeedfacefeedfacefeedface" in
  Out_channel.with_open_bin bad (fun oc ->
      Out_channel.output_string oc "not a cache file");
  Out_channel.with_open_bin (Filename.concat dir "README.txt") (fun oc ->
      Out_channel.output_string oc "left alone");
  let es = Cache.entries ~dir in
  Alcotest.(check int) "three cache entries, foreign file skipped" 3
    (List.length es);
  Alcotest.(check bool) "sorted by file name" true
    (let names = List.map (fun e -> e.Cache.e_file) es in
     names = List.sort String.compare names);
  List.iter
    (fun e ->
      Alcotest.(check bool) ("sized: " ^ e.Cache.e_file) true (e.Cache.e_bytes > 0))
    es;
  let valid, corrupt =
    List.partition (fun e -> Result.is_ok e.Cache.e_key) es
  in
  Alcotest.(check int) "two valid" 2 (List.length valid);
  Alcotest.(check int) "one corrupt" 1 (List.length corrupt);
  (* validate returns the embedded keydesc, matching what was stored *)
  Alcotest.(check bool) "keydescs recovered" true
    (List.sort compare (List.map (fun e -> e.Cache.e_key) valid)
    = List.sort compare [ Ok keydesc; Ok keydesc2 ]);
  (* clear removes the cache entries (even corrupt ones), nothing else *)
  Alcotest.(check int) "cleared three" 3 (Cache.clear ~dir);
  Alcotest.(check int) "now empty" 0 (List.length (Cache.entries ~dir));
  Alcotest.(check bool) "foreign file untouched" true
    (Sys.file_exists (Filename.concat dir "README.txt"))

let suite =
  [
    Alcotest.test_case "roundtrip + per-component digest miss" `Quick
      test_roundtrip_and_digest_miss;
    Alcotest.test_case "entries/validate/clear inspection" `Quick
      test_entries_validate_clear;
    Alcotest.test_case "corrupt files tolerated (5 modes)" `Quick
      test_corrupt_files_are_tolerated;
    Alcotest.test_case "tuned persists; survives corruption" `Quick
      test_tuned_persists_and_survives_corruption;
    Alcotest.test_case "concurrent writers leave a valid file" `Quick
      test_concurrent_writers_leave_valid_file;
    Alcotest.test_case "concurrent tuned on one key" `Quick
      test_concurrent_tuned_same_key;
    Alcotest.test_case "fell_back never memoized or persisted" `Quick
      test_fell_back_never_cached;
    Alcotest.test_case "planted fallback disk entry ignored" `Quick
      test_planted_fallback_entry_ignored;
  ]
