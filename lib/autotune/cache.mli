(** Persistent on-disk tuning cache.

    Tuning results are content-addressed: the file name is a digest of
    (format magic, tuner version, architecture name, kernel name,
    search-space fingerprint), so {i any} change to what a sweep would
    explore — a new tuner release, a different candidate space, another
    machine model — lands on a different file and old entries simply
    stop being found.  Nothing is ever invalidated in place.

    The file format is a plain-text header (magic + the full key
    description + an MD5 checksum of the payload) followed by a
    [Marshal] payload.  Loading tolerates every corruption mode —
    truncation, garbage, a foreign key colliding on the digest, an
    unreadable file: each is a {i miss} plus a structured
    {!Augem_verify.Diag.t} ([E_cache_corrupt @ cache]), never an
    exception.

    Stores are atomic {i and} crash-consistent: temp file in the same
    directory, [fsync] of the file {i before} [Sys.rename], [fsync] of
    the directory after — a kill at any instruction of the write
    sequence leaves either the old entry, no entry plus an orphaned
    [.tmp], or the complete new entry under the final name; never torn
    bytes under a servable path.  Concurrent writers racing on one key
    leave a valid file — last writer wins, and both wrote the same
    bytes anyway because tuning is deterministic.

    Every step of the load/store/recover protocol is an
    {!Augem_resilience.Faultpoint} (the [cache.*] points in
    {!fault_points}), so the chaos driver and the kill-at-every-step
    torture test can crash or corrupt it deterministically.

    The value type is the caller's ([Marshal] is untyped); the header's
    key-description check is what makes reading a foreign value back at
    the wrong type practically impossible.  Callers must only store
    closure-free values. *)

(** Digest of the full cache key; the content address. *)
val digest :
  version:string -> arch:string -> kernel:string -> fingerprint:string -> string

(** The human-readable key description embedded in (and checked
    against) the file header. *)
val keydesc :
  version:string -> arch:string -> kernel:string -> fingerprint:string -> string

(** The cache file path for a digest under a cache directory. *)
val path : dir:string -> digest:string -> string

type 'v load_result =
  | Hit of 'v
  | Miss  (** no entry for this digest *)
  | Corrupt of Augem_verify.Diag.t  (** unloadable entry: treat as a miss *)

(** [load ~dir ~arch ~kernel ~keydesc ~digest] reads the entry for
    [digest], verifying magic, key description and payload checksum.
    [arch]/[kernel] only label the diagnostic on the corrupt path.
    Never raises. *)
val load :
  dir:string ->
  arch:string ->
  kernel:string ->
  keydesc:string ->
  digest:string ->
  'v load_result

(** [store ~dir ~arch ~kernel ~keydesc ~digest v] writes the entry
    atomically and durably (tmp → write → fsync file → rename → fsync
    dir), creating [dir] (and parents) if needed.  Returns a
    diagnostic instead of raising when the write fails (read-only
    directory, disk full, ...): a cache that cannot persist degrades to
    a cache that never hits.  Exception: an injected
    {!Augem_resilience.Faultpoint.Injected} crash propagates — it
    simulates a kill, and deliberately leaves the on-disk debris a real
    kill would (callers that must survive it guard the call; the chaos
    registry does). *)
val store :
  dir:string ->
  arch:string ->
  kernel:string ->
  keydesc:string ->
  digest:string ->
  'v ->
  Augem_verify.Diag.t option

(** {2 Cache directory inspection}

    Support for the [augem cache] subcommand: enumerate, validate and
    clear the entries under a cache directory without duplicating the
    path or header logic. *)

(** Does this path look like a cache entry ([augem-tune-*.cache])? *)
val is_cache_file : string -> bool

type entry = {
  e_file : string;  (** full path *)
  e_bytes : int;  (** size on disk *)
  e_key : (string, string) result;
      (** the embedded key description, or why the file is unloadable *)
}

(** Verify a cache file's header and payload checksum {i without}
    unmarshalling the payload; returns the embedded key description.
    Never raises. *)
val validate : string -> (string, string) result

(** All cache entries under [dir], sorted by file name; missing or
    unreadable directories yield [[]].  Never raises. *)
val entries : dir:string -> entry list

(** Remove every cache entry under [dir] (other files are untouched);
    returns how many were removed.  Never raises. *)
val clear : dir:string -> int

(** {2 Crash recovery}

    A daemon that may have been killed mid-store runs {!recover} before
    serving: write debris and unverifiable entries are moved into a
    [quarantine/] subdirectory (falling back to removal), so the
    servable namespace only ever contains entries {!load} would accept.
    A quarantined entry is preserved for post-mortem, never loadable. *)

(** Fault-point names of the cache layer (["cache.read"],
    ["cache.store.*"], ["cache.recover.*"]), pre-registered. *)
val fault_points : string list

(** Name of the quarantine subdirectory under a cache dir. *)
val quarantine_dirname : string

(** Does this path look like store write-debris ([augem-tune-*.tmp])? *)
val is_tmp_file : string -> bool

type recovery = {
  rc_scanned : int;  (** cache entries examined *)
  rc_valid : int;  (** entries whose header + checksum verify *)
  rc_quarantined : int;  (** corrupt entries moved aside *)
  rc_tmp_quarantined : int;  (** orphaned [.tmp] files moved aside *)
  rc_diags : Augem_verify.Diag.t list;
      (** one structured record per action or per failure-to-act *)
}

(** Scan [dir] and quarantine everything {!load} would reject.
    [arch]/[kernel] label the diagnostics (default ["-"]: a startup
    scan is not about any one kernel).  A missing directory is an empty
    recovery.  Never raises — including under injected faults. *)
val recover :
  ?arch:string -> ?kernel:string -> dir:string -> unit -> recovery
