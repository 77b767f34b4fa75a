//! Versioned on-disk campaign store.
//!
//! Everything a campaign discovers — the admitted seed pool, the unique
//! crash classes with their reproducers, the final coverage bitmap — is
//! written into a directory that survives the process and flows through
//! CI (the `replay` bin re-executes it, see [`crate::replay`]). The
//! store is designed around three constraints:
//!
//! * **Atomicity.** Every file is written via temp-file + rename, and
//!   the manifest is written last — a directory with a manifest is a
//!   complete store; a directory without one is a campaign that died
//!   mid-flight (whose incrementally persisted crashes are still
//!   readable, see [`scan_crashes`]).
//! * **Versioning.** Every record carries the schema version and a
//!   fingerprint of the producing configuration. Corrupt, foreign-schema
//!   or foreign-config entries are *skipped and counted*
//!   ([`SkipStats`]), never fatal — two fleet jobs pointed at the same
//!   directory degrade to counted skips instead of corrupting each
//!   other.
//! * **Portability.** No external serialization crates: records are
//!   plain `key = value` text, progs travel as hex of
//!   [`Prog::canonical_bytes`], and floats as exact bit patterns, so a
//!   store written on one host replays bit-identically on another.
//!
//! Layout: `<dir>/manifest.eof`, `<dir>/corpus/<hash>.seed`,
//! `<dir>/crashes/<key-hash>.crash`, `<dir>/coverage`.

use crate::config::{FuzzerConfig, LivenessChannel};
use crate::crash::{dedup_key, CrashReport, DetectionSource};
use eof_coverage::CoverageKind;
use eof_rtos::OsKind;
use eof_speclang::prog::Prog;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Store format version. Bump on any incompatible record change; open()
/// refuses foreign manifests and counts foreign entries as skips.
pub const SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64 over arbitrary bytes — the store's stable hash (std's
/// hasher keys are unspecified across processes).
pub fn fnv64(bytes: &[u8]) -> u64 {
    eof_hal::flash::fnv1a(bytes)
}

/// Fingerprint of the campaign knobs that determine a store's contents.
/// Budget, snapshot cadence and the persist path itself are deliberately
/// excluded: a resumed campaign re-runs the same configuration at a
/// longer budget and must still own the store's entries.
pub fn config_fingerprint(config: &FuzzerConfig) -> u64 {
    fnv64(config_canonical(config).as_bytes())
}

fn config_canonical(config: &FuzzerConfig) -> String {
    // The detector and recovery knobs render as the `Debug` text of the
    // structs that held the liveness channel as three separate fields
    // (`timeout_only_secs`, `stall_watchdog`, `power_liveness`), so
    // every store keeps the fingerprint it was written under.
    let (detection, liveness) = (&config.detection, config.detection.liveness);
    let timeout_secs = match liveness {
        LivenessChannel::Timeout { secs } => Some(secs),
        LivenessChannel::PcStall | LivenessChannel::Power => None,
    };
    let detect = format!(
        "DetectionConfig {{ exception_breakpoints: {}, log_monitor: {}, timeout_only_secs: {:?} }}",
        detection.exception_breakpoints, detection.log_monitor, timeout_secs,
    );
    let recover = format!(
        "RecoveryConfig {{ stall_watchdog: {}, reflash: {}, power_liveness: {} }}",
        liveness == LivenessChannel::PcStall,
        config.recovery.reflash,
        liveness == LivenessChannel::Power,
    );
    let mut canon = format!(
        "schema={SCHEMA_VERSION};os={};osver={};board={};seed={};covfb={};crashfb={};gen={:?};\
         instr={:?};profile={:?};detect={detect};recover={recover};covfrac={:e};costmul={:e};maxcalls={};\
         noise={:?};validation={};modules={:?};periph={};nopseudo={}",
        config.os.short(),
        config.os.version(),
        config.board.name,
        config.seed,
        config.coverage_feedback,
        config.crash_feedback,
        config.gen_mode,
        config.instrument,
        config.profile,
        config.cov_observe_fraction,
        config.exec_cost_multiplier,
        config.max_calls,
        config.spec_noise,
        config.spec_validation,
        config.module_filter,
        config.peripheral_events,
        config.exclude_pseudo,
    );
    // Appended only when on, so every pre-MMIO store fingerprint stays
    // byte-identical and old stores remain owned by their configs.
    if config.mmio {
        canon.push_str(";mmio=true");
    }
    // Same scheme for cmplog: the I2S mutation stage changes which
    // inputs are generated, so the fingerprint must split, but a
    // cmplog-off campaign keeps its pre-cmplog fingerprint byte for
    // byte.
    if config.cmplog {
        canon.push_str(";cmplog=true");
    }
    canon
}

pub(crate) fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

pub(crate) fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".to_string());
    }
    // Byte-wise: slicing the `str` could split a multi-byte character.
    let nibble = |b: u8| {
        (b as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex byte {b:#04x}"))
    };
    s.as_bytes()
        .chunks(2)
        .map(|pair| Ok((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}

/// Why the store could not be used at all. Per-*entry* problems are
/// never errors — they become [`SkipStats`] counts.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem failure (message includes the path).
    Io(String),
    /// The directory has no manifest — an absent or mid-flight store.
    MissingManifest(PathBuf),
    /// The manifest was written by a different store format.
    ForeignSchema {
        /// Version found in the manifest.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The manifest itself does not parse.
    Corrupt(String),
    /// The store belongs to a configuration the caller cannot
    /// reconstruct (fingerprint mismatch).
    ConfigMismatch(String),
    /// Replay-based resume re-derived a history that does not contain
    /// the persisted one — the determinism contract broke.
    Diverged(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::MissingManifest(p) => {
                write!(
                    f,
                    "no manifest in {} (absent or mid-flight store)",
                    p.display()
                )
            }
            StoreError::ForeignSchema { found, expected } => {
                write!(f, "store schema {found} is not the supported {expected}")
            }
            StoreError::Corrupt(m) => write!(f, "corrupt manifest: {m}"),
            StoreError::ConfigMismatch(m) => write!(f, "config mismatch: {m}"),
            StoreError::Diverged(m) => write!(f, "resume diverged: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Per-entry problems counted (never fatal) while reading a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Entries that did not parse (truncated, garbled, bad hex).
    pub corrupt: usize,
    /// Entries written by a different schema version.
    pub foreign_schema: usize,
    /// Entries written by a different configuration (e.g. a second
    /// fleet job sharing the directory).
    pub foreign_config: usize,
}

impl SkipStats {
    /// Total entries skipped.
    pub fn total(&self) -> usize {
        self.corrupt + self.foreign_schema + self.foreign_config
    }
}

enum SkipKind {
    Corrupt,
    ForeignSchema,
    ForeignConfig,
}

impl SkipStats {
    fn bump(&mut self, kind: SkipKind) {
        match kind {
            SkipKind::Corrupt => self.corrupt += 1,
            SkipKind::ForeignSchema => self.foreign_schema += 1,
            SkipKind::ForeignConfig => self.foreign_config += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Record text format
// ---------------------------------------------------------------------------

fn render_record(fields: &[(&str, String)]) -> String {
    let mut out = String::new();
    for (k, v) in fields {
        out.push_str(k);
        out.push_str(" = ");
        out.push_str(v);
        out.push('\n');
    }
    out
}

struct Record(BTreeMap<String, String>);

impl Record {
    fn parse(text: &str) -> Result<Record, String> {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = match line.split_once(" = ") {
                Some(kv) => kv,
                // Trimming dropped the space after an empty value's `=`.
                None => (
                    line.strip_suffix(" =")
                        .ok_or_else(|| format!("not a record line: {line:?}"))?,
                    "",
                ),
            };
            map.insert(k.to_string(), v.to_string());
        }
        if map.is_empty() {
            return Err("empty record".to_string());
        }
        Ok(Record(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)?
            .parse()
            .map_err(|e| format!("field {key:?}: {e:?}"))
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.get(key)?
            .parse()
            .map_err(|e| format!("field {key:?}: {e:?}"))
    }

    fn hex_u64(&self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.get(key)?, 16).map_err(|e| format!("field {key:?}: {e:?}"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            v => Err(format!("field {key:?}: not a bool: {v:?}")),
        }
    }

    /// Floats are stored as exact bit patterns — `0.1`-style decimal
    /// round-trips are not bit-exact and the store is a determinism
    /// artifact.
    fn f64_bits(&self, key: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.hex_u64(key)?))
    }

    fn prog(&self, key: &str) -> Result<Prog, String> {
        Prog::from_canonical_bytes(&unhex(self.get(key)?)?)
    }

    fn string_hex(&self, key: &str) -> Result<String, String> {
        String::from_utf8(unhex(self.get(key)?)?).map_err(|e| format!("field {key:?}: {e:?}"))
    }
}

fn os_from_short(s: &str) -> Option<OsKind> {
    OsKind::ALL.into_iter().find(|o| o.short() == s)
}

fn source_label(source: DetectionSource) -> &'static str {
    match source {
        DetectionSource::ExceptionMonitor => "exception",
        DetectionSource::LogMonitor => "log",
        DetectionSource::Timeout => "timeout",
        DetectionSource::StallWatchdog => "stall",
    }
}

fn source_from_label(s: &str) -> Result<DetectionSource, String> {
    match s {
        "exception" => Ok(DetectionSource::ExceptionMonitor),
        "log" => Ok(DetectionSource::LogMonitor),
        "timeout" => Ok(DetectionSource::Timeout),
        "stall" => Ok(DetectionSource::StallWatchdog),
        other => Err(format!("unknown detection source {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Persisted entry types
// ---------------------------------------------------------------------------

/// One persisted corpus seed with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedSeed {
    /// [`Prog::stable_hash`] of the prog (also the file name).
    pub hash: u64,
    /// Admission ordinal within the campaign (replay order).
    pub ordinal: u64,
    /// Edges the seed discovered when admitted live.
    pub new_edges: usize,
    /// Whether it carried a crash signal at admission.
    pub crashed: bool,
    /// Edges it contributed when replayed in ordinal order on a fresh
    /// target at save time — the value replay must reproduce.
    pub replay_edges: usize,
    /// The test case.
    pub prog: Prog,
}

impl PersistedSeed {
    fn render(&self, fingerprint: u64) -> String {
        render_record(&[
            ("schema", SCHEMA_VERSION.to_string()),
            ("fingerprint", format!("{fingerprint:016x}")),
            ("hash", format!("{:016x}", self.hash)),
            ("ordinal", self.ordinal.to_string()),
            ("new_edges", self.new_edges.to_string()),
            ("crashed", self.crashed.to_string()),
            ("replay_edges", self.replay_edges.to_string()),
            ("prog", hex(&self.prog.canonical_bytes())),
        ])
    }

    fn from_record(rec: &Record) -> Result<Self, String> {
        let prog = rec.prog("prog")?;
        let hash = rec.hex_u64("hash")?;
        if prog.stable_hash() != hash {
            return Err("seed hash does not match prog bytes".to_string());
        }
        Ok(PersistedSeed {
            hash,
            ordinal: rec.u64("ordinal")?,
            new_edges: rec.usize("new_edges")?,
            crashed: rec.bool("crashed")?,
            replay_edges: rec.usize("replay_edges")?,
            prog,
        })
    }
}

/// One persisted unique-crash class with its reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedCrash {
    /// The campaign's dedup key ([`crate::crash::dedup_key`]).
    pub key: String,
    /// FNV-64 of the key (also the file name).
    pub key_hash: u64,
    /// Target OS.
    pub os: OsKind,
    /// Crash banner / matched log line.
    pub message: String,
    /// Symbolised backtrace, innermost first.
    pub backtrace: Vec<String>,
    /// Which monitor detected it.
    pub source: DetectionSource,
    /// Triaged Table-2 bug number, if attributed.
    pub bug_number: Option<u8>,
    /// Simulated hours at first detection.
    pub at_hours: f64,
    /// The reproducer (minimized when `minimized`).
    pub prog: Prog,
    /// Whether the reproducer re-triggered the class on a fresh boot at
    /// save time. Only confirmed cases gate replay.
    pub confirmed: bool,
    /// Whether `prog` is the minimized reproducer (vs the raw one).
    pub minimized: bool,
}

impl PersistedCrash {
    /// Build the persisted form of a live report. `confirmed` and
    /// `minimized` describe what the finalize pass established.
    pub fn from_report(report: &CrashReport, confirmed: bool, minimized: bool) -> Self {
        let key = dedup_key(report);
        PersistedCrash {
            key_hash: fnv64(key.as_bytes()),
            key,
            os: report.os,
            message: report.message.clone(),
            backtrace: report.backtrace.clone(),
            source: report.source,
            bug_number: report.bug.map(|b| b.number()),
            at_hours: report.at_hours,
            prog: report.prog.clone(),
            confirmed,
            minimized,
        }
    }

    fn render(&self, fingerprint: u64) -> String {
        render_record(&[
            ("schema", SCHEMA_VERSION.to_string()),
            ("fingerprint", format!("{fingerprint:016x}")),
            ("key_hash", format!("{:016x}", self.key_hash)),
            ("key_hex", hex(self.key.as_bytes())),
            ("os", self.os.short().to_string()),
            ("message_hex", hex(self.message.as_bytes())),
            ("backtrace_hex", hex(self.backtrace.join("\n").as_bytes())),
            ("source", source_label(self.source).to_string()),
            (
                "bug",
                match self.bug_number {
                    Some(n) => n.to_string(),
                    None => "none".to_string(),
                },
            ),
            ("at_hours_bits", format!("{:016x}", self.at_hours.to_bits())),
            ("confirmed", self.confirmed.to_string()),
            ("minimized", self.minimized.to_string()),
            ("prog", hex(&self.prog.canonical_bytes())),
        ])
    }

    fn from_record(rec: &Record) -> Result<Self, String> {
        let key = rec.string_hex("key_hex")?;
        let key_hash = rec.hex_u64("key_hash")?;
        if fnv64(key.as_bytes()) != key_hash {
            return Err("crash key hash does not match key bytes".to_string());
        }
        let backtrace_joined = rec.string_hex("backtrace_hex")?;
        let backtrace = if backtrace_joined.is_empty() {
            Vec::new()
        } else {
            backtrace_joined.split('\n').map(str::to_string).collect()
        };
        Ok(PersistedCrash {
            key,
            key_hash,
            os: {
                let label = rec.get("os")?;
                os_from_short(label).ok_or_else(|| format!("unknown os {label:?}"))?
            },
            message: rec.string_hex("message_hex")?,
            backtrace,
            source: source_from_label(rec.get("source")?)?,
            bug_number: match rec.get("bug")? {
                "none" => None,
                n => Some(n.parse().map_err(|e| format!("bug number: {e:?}"))?),
            },
            at_hours: rec.f64_bits("at_hours_bits")?,
            prog: rec.prog("prog")?,
            confirmed: rec.bool("confirmed")?,
            minimized: rec.bool("minimized")?,
        })
    }
}

/// The store's manifest — written last, so its presence marks a
/// complete store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreManifest {
    /// Configuration fingerprint ([`config_fingerprint`]).
    pub fingerprint: u64,
    /// Target OS.
    pub os: OsKind,
    /// Board name (must resolve via the board catalog on replay).
    pub board: String,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Whether the producing campaign drove the debug link with
    /// vectored (batched) transactions. Deliberately *not* part of the
    /// fingerprint — per-exec behaviour is wire-mode-independent, so
    /// seeds and reproducers replay under either mode — but resume must
    /// re-derive the interrupted prefix at the producer's throughput,
    /// so the knob rides in the manifest.
    pub vectored: bool,
    /// Whether the producing campaign recovered via board snapshots and
    /// dirty-page delta restore. Like `vectored`, behaviour-neutral and
    /// excluded from the fingerprint (`tests/snapshot_equiv.rs`), but
    /// recorded so resume reproduces the producer's recovery cost.
    pub snapshot: bool,
    /// Whether the producing campaign fuzzed the MMIO input plane
    /// (driver workload). Part of the fingerprint — driver reproducers
    /// carry peripheral response streams — and carried here so replay
    /// and resume reconstruct the right configuration. Reads tolerate
    /// the key's absence (pre-MMIO stores are pure API plane).
    pub mmio: bool,
    /// Whether the producing campaign ran the Redqueen/I2S cmplog
    /// pipeline. Part of the fingerprint — cmplog changes generation —
    /// and carried here for replay/resume reconstruction. Reads
    /// tolerate the key's absence (pre-cmplog stores are pure).
    pub cmplog: bool,
    /// Which coverage channel the producing campaign acquired edges
    /// over. Like `wire`/`restore`, behaviour-neutral and excluded from
    /// the fingerprint (`tests/trace_equiv.rs` is the gate), but
    /// recorded so resume re-runs the producer's acquisition path.
    /// Reads tolerate the key's absence (pre-trace stores are ring).
    pub coverage: CoverageKind,
    /// Simulated hours the producing campaign consumed.
    pub consumed_hours: f64,
    /// Final distinct-branch count of the campaign coverage map.
    pub branches: usize,
    /// Branch count of the save-time seed-replay baseline — the value
    /// replay must land on exactly.
    pub replay_branches: usize,
    /// Seeds written at finalize.
    pub seed_count: usize,
    /// Crash classes written.
    pub crash_count: usize,
    /// Executions the producing campaign performed.
    pub execs: u64,
}

impl StoreManifest {
    fn render(&self) -> String {
        let mut out = format!(
            "# EOF campaign store manifest (schema {SCHEMA_VERSION})\n\
             # {} seed {} on {}, {} branches after {} execs\n",
            self.os.display(),
            self.seed,
            self.board,
            self.branches,
            self.execs,
        );
        out.push_str(&render_record(&[
            ("schema", SCHEMA_VERSION.to_string()),
            ("fingerprint", format!("{:016x}", self.fingerprint)),
            ("os", self.os.short().to_string()),
            ("board", self.board.clone()),
            ("seed", self.seed.to_string()),
            (
                "wire",
                if self.vectored { "vectored" } else { "scalar" }.to_string(),
            ),
            (
                "restore",
                if self.snapshot { "snapshot" } else { "reflash" }.to_string(),
            ),
            (
                "consumed_hours_bits",
                format!("{:016x}", self.consumed_hours.to_bits()),
            ),
            ("io", if self.mmio { "mmio" } else { "api" }.to_string()),
            (
                "i2s",
                if self.cmplog { "cmplog" } else { "pure" }.to_string(),
            ),
            ("cov", self.coverage.token().to_string()),
            ("branches", self.branches.to_string()),
            ("replay_branches", self.replay_branches.to_string()),
            ("seed_count", self.seed_count.to_string()),
            ("crash_count", self.crash_count.to_string()),
            ("execs", self.execs.to_string()),
        ]));
        out
    }

    fn from_record(rec: &Record) -> Result<Self, String> {
        Ok(StoreManifest {
            fingerprint: rec.hex_u64("fingerprint")?,
            os: {
                let label = rec.get("os")?;
                os_from_short(label).ok_or_else(|| format!("unknown os {label:?}"))?
            },
            board: rec.get("board")?.to_string(),
            seed: rec.u64("seed")?,
            // Stores from before the wire-mode split carry no key; they
            // were produced over a scalar link.
            vectored: rec.get("wire").map(|w| w == "vectored").unwrap_or(false),
            // Same for stores predating the snapshot fast path: they
            // recovered by reboot/reflash only.
            snapshot: rec.get("restore").map(|r| r == "snapshot").unwrap_or(false),
            // Stores predating the driver workload carry no key: pure
            // API plane only.
            mmio: rec.get("io").map(|v| v == "mmio").unwrap_or(false),
            // Stores predating the cmplog channel carry no key.
            cmplog: rec.get("i2s").map(|v| v == "cmplog").unwrap_or(false),
            // Stores predating the trace backend carry no key: they
            // were produced over the instrumented ring.
            coverage: rec
                .get("cov")
                .map(CoverageKind::from_token)
                .unwrap_or(CoverageKind::Ring),
            consumed_hours: rec.f64_bits("consumed_hours_bits")?,
            branches: rec.usize("branches")?,
            replay_branches: rec.usize("replay_branches")?,
            seed_count: rec.usize("seed_count")?,
            crash_count: rec.usize("crash_count")?,
            execs: rec.u64("execs")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write `contents` to `path` atomically: a uniquely named sibling temp
/// file is written first, then renamed over the destination, so readers
/// (and concurrent writers racing on the same name) only ever see whole
/// records.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let file_name = path
        .file_name()
        .and_then(|f| f.to_str())
        .ok_or_else(|| format!("bad store path {}", path.display()))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp-{}-{n}", std::process::id()));
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename to {}: {e}", path.display())
    })
}

/// A campaign's live write handle to its store directory.
///
/// Created at campaign start; crash classes are written incrementally
/// the moment they are discovered (so a mid-flight outage loses no
/// uniques), and the rest — seed pool, coverage, manifest — is written
/// by the finalize pass ([`crate::replay::finalize_store`]). Write
/// failures are counted, never propagated: persistence must not be able
/// to kill a campaign.
#[derive(Debug)]
pub struct CampaignStore {
    dir: PathBuf,
    fingerprint: u64,
    os: OsKind,
    board: String,
    seed: u64,
    vectored: bool,
    snapshot: bool,
    mmio: bool,
    cmplog: bool,
    coverage: CoverageKind,
    write_errors: usize,
}

impl CampaignStore {
    /// Open `dir` for writing (creating it and its subdirectories). Any
    /// existing manifest is removed — the store is mid-flight again
    /// until finalize rewrites it.
    pub fn create(dir: &Path, config: &FuzzerConfig) -> Result<Self, StoreError> {
        for sub in ["corpus", "crashes"] {
            std::fs::create_dir_all(dir.join(sub))
                .map_err(|e| StoreError::Io(format!("create {}/{sub}: {e}", dir.display())))?;
        }
        match std::fs::remove_file(dir.join("manifest.eof")) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::Io(format!("clear stale manifest: {e}"))),
        }
        Ok(CampaignStore {
            dir: dir.to_path_buf(),
            fingerprint: config_fingerprint(config),
            os: config.os,
            board: config.board.name.to_string(),
            seed: config.seed,
            vectored: config.vectored,
            snapshot: config.snapshot,
            mmio: config.mmio,
            cmplog: config.cmplog,
            coverage: config.coverage_backend,
            write_errors: 0,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This store's configuration fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Write failures absorbed so far.
    pub fn write_errors(&self) -> usize {
        self.write_errors
    }

    fn write_counted(&mut self, path: &Path, contents: &str) {
        if write_atomic(path, contents).is_err() {
            self.write_errors += 1;
        }
    }

    /// Persist one crash class (idempotent: same key overwrites).
    pub fn record_crash(&mut self, crash: &PersistedCrash) {
        let path = self
            .dir
            .join("crashes")
            .join(format!("{:016x}.crash", crash.key_hash));
        let text = crash.render(self.fingerprint);
        self.write_counted(&path, &text);
    }

    /// Persist one corpus seed.
    pub fn write_seed(&mut self, seed: &PersistedSeed) {
        let path = self
            .dir
            .join("corpus")
            .join(format!("{:016x}.seed", seed.hash));
        let text = seed.render(self.fingerprint);
        self.write_counted(&path, &text);
    }

    /// Persist the final coverage bitmap (edge ids, sorted ascending).
    pub fn write_coverage(&mut self, edges: &[u64]) {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        let joined: Vec<String> = sorted.iter().map(|e| format!("{e:016x}")).collect();
        let text = render_record(&[
            ("schema", SCHEMA_VERSION.to_string()),
            ("fingerprint", format!("{:016x}", self.fingerprint)),
            ("count", sorted.len().to_string()),
            ("edges", joined.join(",")),
        ]);
        let path = self.dir.join("coverage");
        self.write_counted(&path, &text);
    }

    /// Delete *our own* stale entries: files carrying this store's
    /// fingerprint whose hash is no longer in the keep sets (a rerun
    /// into the same directory admitted a different pool). Foreign and
    /// unparseable files are left alone — they are some other writer's
    /// business and are counted at open time.
    pub fn sweep_stale(&mut self, keep_seeds: &BTreeSet<u64>, keep_crashes: &BTreeSet<u64>) {
        for (sub, ext, keep) in [
            ("corpus", "seed", keep_seeds),
            ("crashes", "crash", keep_crashes),
        ] {
            let Ok(entries) = std::fs::read_dir(self.dir.join(sub)) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some(ext) {
                    continue;
                }
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                let Ok(rec) = Record::parse(&text) else {
                    continue;
                };
                if rec.hex_u64("fingerprint") != Ok(self.fingerprint) {
                    continue;
                }
                let hash_field = if ext == "seed" { "hash" } else { "key_hash" };
                match rec.hex_u64(hash_field) {
                    Ok(h) if !keep.contains(&h) => {
                        let _ = std::fs::remove_file(&path);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Write the manifest — the last step; its presence marks the store
    /// complete.
    pub fn write_manifest(
        &mut self,
        consumed_hours: f64,
        branches: usize,
        replay_branches: usize,
        seed_count: usize,
        crash_count: usize,
        execs: u64,
    ) {
        let manifest = StoreManifest {
            fingerprint: self.fingerprint,
            os: self.os,
            board: self.board.clone(),
            seed: self.seed,
            vectored: self.vectored,
            snapshot: self.snapshot,
            mmio: self.mmio,
            cmplog: self.cmplog,
            coverage: self.coverage,
            consumed_hours,
            branches,
            replay_branches,
            seed_count,
            crash_count,
            execs,
        };
        let text = manifest.render();
        let path = self.dir.join("manifest.eof");
        self.write_counted(&path, &text);
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A fully loaded store.
#[derive(Debug, Clone)]
pub struct LoadedStore {
    /// Where it was read from.
    pub dir: PathBuf,
    /// The manifest.
    pub manifest: StoreManifest,
    /// Seeds owned by the manifest's configuration, in ordinal order.
    pub seeds: Vec<PersistedSeed>,
    /// Crash classes owned by the manifest's configuration, sorted by
    /// dedup key.
    pub crashes: Vec<PersistedCrash>,
    /// The final coverage bitmap's edge ids, sorted ascending (empty
    /// when the coverage file was missing or corrupt — counted).
    pub coverage_edges: Vec<u64>,
    /// Entries skipped while loading.
    pub skips: SkipStats,
}

fn load_entry<T>(
    text: &str,
    fingerprint: u64,
    parse: impl FnOnce(&Record) -> Result<T, String>,
) -> Result<T, SkipKind> {
    let rec = Record::parse(text).map_err(|_| SkipKind::Corrupt)?;
    let schema = rec.u64("schema").map_err(|_| SkipKind::Corrupt)?;
    if schema != SCHEMA_VERSION as u64 {
        return Err(SkipKind::ForeignSchema);
    }
    if rec.hex_u64("fingerprint").map_err(|_| SkipKind::Corrupt)? != fingerprint {
        return Err(SkipKind::ForeignConfig);
    }
    parse(&rec).map_err(|_| SkipKind::Corrupt)
}

/// Files under `dir/sub` with extension `ext`, sorted by name for
/// deterministic load order.
fn entry_paths(dir: &Path, sub: &str, ext: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir.join(sub)) {
        Ok(entries) => entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
            .collect(),
        Err(_) => Vec::new(),
    };
    paths.sort();
    paths
}

/// Open a complete store. Per-entry problems degrade to counted skips;
/// only a missing/corrupt/foreign manifest is an error.
pub fn open(dir: &Path) -> Result<LoadedStore, StoreError> {
    let manifest_path = dir.join("manifest.eof");
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::MissingManifest(dir.to_path_buf()))
        }
        Err(e) => return Err(StoreError::Io(format!("{}: {e}", manifest_path.display()))),
    };
    let rec = Record::parse(&text).map_err(StoreError::Corrupt)?;
    let schema = rec.u64("schema").map_err(StoreError::Corrupt)? as u32;
    if schema != SCHEMA_VERSION {
        return Err(StoreError::ForeignSchema {
            found: schema,
            expected: SCHEMA_VERSION,
        });
    }
    let manifest = StoreManifest::from_record(&rec).map_err(StoreError::Corrupt)?;

    let mut skips = SkipStats::default();
    let mut seeds = Vec::new();
    for path in entry_paths(dir, "corpus", "seed") {
        let Ok(text) = std::fs::read_to_string(&path) else {
            skips.corrupt += 1;
            continue;
        };
        match load_entry(&text, manifest.fingerprint, PersistedSeed::from_record) {
            Ok(seed) => seeds.push(seed),
            Err(kind) => skips.bump(kind),
        }
    }
    seeds.sort_by_key(|s| s.ordinal);

    let mut crashes = Vec::new();
    for path in entry_paths(dir, "crashes", "crash") {
        let Ok(text) = std::fs::read_to_string(&path) else {
            skips.corrupt += 1;
            continue;
        };
        match load_entry(&text, manifest.fingerprint, PersistedCrash::from_record) {
            Ok(crash) => crashes.push(crash),
            Err(kind) => skips.bump(kind),
        }
    }
    crashes.sort_by(|a, b| a.key.cmp(&b.key));

    let coverage_edges = match std::fs::read_to_string(dir.join("coverage")) {
        Ok(text) => match load_entry(&text, manifest.fingerprint, |rec| {
            let joined = rec.get("edges")?;
            let mut edges: Vec<u64> = if joined.is_empty() {
                Vec::new()
            } else {
                joined
                    .split(',')
                    .map(|e| u64::from_str_radix(e, 16).map_err(|e| format!("edge: {e:?}")))
                    .collect::<Result<_, _>>()?
            };
            if edges.len() != rec.usize("count")? {
                return Err("edge count mismatch".to_string());
            }
            edges.sort_unstable();
            Ok(edges)
        }) {
            Ok(edges) => edges,
            Err(kind) => {
                skips.bump(kind);
                Vec::new()
            }
        },
        Err(_) => {
            skips.corrupt += 1;
            Vec::new()
        }
    };

    Ok(LoadedStore {
        dir: dir.to_path_buf(),
        manifest,
        seeds,
        crashes,
        coverage_edges,
        skips,
    })
}

/// Read whatever crash records a (possibly mid-flight, manifest-less)
/// store holds for `fingerprint`. The chaos harness uses this to prove
/// an interrupted campaign's incremental writes lost nothing.
pub fn scan_crashes(dir: &Path, fingerprint: u64) -> (Vec<PersistedCrash>, SkipStats) {
    let mut skips = SkipStats::default();
    let mut crashes = Vec::new();
    for path in entry_paths(dir, "crashes", "crash") {
        let Ok(text) = std::fs::read_to_string(&path) else {
            skips.corrupt += 1;
            continue;
        };
        match load_entry(&text, fingerprint, PersistedCrash::from_record) {
            Ok(crash) => crashes.push(crash),
            Err(kind) => skips.bump(kind),
        }
    }
    crashes.sort_by(|a, b| a.key.cmp(&b.key));
    (crashes, skips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_speclang::prog::{ArgValue, Call};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eof-persist-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn prog(tag: &str, n: u64) -> Prog {
        Prog {
            mmio: vec![],
            calls: vec![Call {
                api: tag.to_string(),
                args: vec![ArgValue::Int(n)],
            }],
        }
    }

    fn config() -> FuzzerConfig {
        FuzzerConfig::eof(OsKind::FreeRtos, 7)
    }

    fn seed_entry(tag: &str, ordinal: u64) -> PersistedSeed {
        let prog = prog(tag, ordinal);
        PersistedSeed {
            hash: prog.stable_hash(),
            ordinal,
            new_edges: 3,
            crashed: false,
            replay_edges: 3,
            prog,
        }
    }

    fn crash_entry(msg: &str) -> PersistedCrash {
        let report = CrashReport {
            os: OsKind::FreeRtos,
            message: msg.to_string(),
            backtrace: vec!["frame_a".into(), "frame_b".into()],
            source: DetectionSource::ExceptionMonitor,
            prog: prog("crashy", 1),
            at_hours: 0.25,
            bug: None,
        };
        PersistedCrash::from_report(&report, true, false)
    }

    fn write_full_store(dir: &Path, cfg: &FuzzerConfig) -> CampaignStore {
        let mut store = CampaignStore::create(dir, cfg).unwrap();
        store.write_seed(&seed_entry("alpha", 0));
        store.write_seed(&seed_entry("beta", 1));
        store.record_crash(&crash_entry("fault at 0x40"));
        store.write_coverage(&[9, 4, 7]);
        store.write_manifest(0.5, 3, 3, 2, 1, 120);
        store
    }

    #[test]
    fn round_trips_a_full_store() {
        let dir = tmpdir("roundtrip");
        let cfg = config();
        write_full_store(&dir, &cfg);
        let loaded = open(&dir).unwrap();
        assert_eq!(loaded.manifest.fingerprint, config_fingerprint(&cfg));
        assert_eq!(loaded.manifest.os, OsKind::FreeRtos);
        assert_eq!(loaded.manifest.seed, 7);
        assert_eq!(loaded.manifest.consumed_hours, 0.5);
        assert_eq!(loaded.seeds.len(), 2);
        assert_eq!(loaded.seeds[0].ordinal, 0);
        assert_eq!(loaded.seeds[0].prog.calls[0].api, "alpha");
        assert_eq!(loaded.crashes.len(), 1);
        assert_eq!(loaded.crashes[0].message, "fault at 0x40");
        assert_eq!(loaded.crashes[0].backtrace, vec!["frame_a", "frame_b"]);
        assert!(loaded.crashes[0].confirmed);
        assert_eq!(loaded.coverage_edges, vec![4, 7, 9]);
        assert_eq!(loaded.skips, SkipStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_values_round_trip() {
        // An empty edge set renders `edges = ` and an empty backtrace
        // `backtrace_hex = `; both must load, not count as corrupt.
        let dir = tmpdir("empty");
        let mut store = CampaignStore::create(&dir, &config()).unwrap();
        let mut crash = crash_entry("no frames");
        crash.backtrace.clear();
        store.record_crash(&crash);
        store.write_coverage(&[]);
        store.write_manifest(0.5, 1, 1, 0, 0, 0);
        let loaded = open(&dir).unwrap();
        assert_eq!(loaded.skips, SkipStats::default());
        assert_eq!(loaded.crashes, vec![crash]);
        assert!(loaded.coverage_edges.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unhex_rejects_what_hex_never_writes() {
        assert_eq!(unhex("0aFf"), Ok(vec![0x0a, 0xff]));
        // Multi-byte characters must not split a byte pair mid-char.
        for bad in ["\u{fffd}a", "a\u{e9}b", "+f", "0g", "abc"] {
            assert!(unhex(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = tmpdir("nomanifest");
        let mut store = CampaignStore::create(&dir, &config()).unwrap();
        store.record_crash(&crash_entry("interrupted"));
        // No finalize: the campaign "died" mid-flight.
        assert!(matches!(open(&dir), Err(StoreError::MissingManifest(_))));
        // But the incremental crash record is recoverable.
        let (crashes, skips) = scan_crashes(&dir, store.fingerprint());
        assert_eq!(crashes.len(), 1);
        assert_eq!(skips, SkipStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_a_counted_skip() {
        let dir = tmpdir("truncated");
        let cfg = config();
        write_full_store(&dir, &cfg);
        // Truncate one seed mid-record.
        let victim = entry_paths(&dir, "corpus", "seed").remove(0);
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
        let loaded = open(&dir).unwrap();
        assert_eq!(loaded.seeds.len(), 1, "the intact seed still loads");
        assert_eq!(loaded.skips.corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_schema_version_is_a_counted_skip() {
        let dir = tmpdir("schema-entry");
        let cfg = config();
        write_full_store(&dir, &cfg);
        let victim = entry_paths(&dir, "crashes", "crash").remove(0);
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, text.replace("schema = 1", "schema = 99")).unwrap();
        let loaded = open(&dir).unwrap();
        assert!(loaded.crashes.is_empty());
        assert_eq!(loaded.skips.foreign_schema, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_manifest_schema_is_a_typed_error() {
        let dir = tmpdir("schema-manifest");
        write_full_store(&dir, &config());
        let path = dir.join("manifest.eof");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("schema = 1", "schema = 2")).unwrap();
        assert_eq!(
            open(&dir).unwrap_err(),
            StoreError::ForeignSchema {
                found: 2,
                expected: SCHEMA_VERSION
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_prog_bytes_fail_the_hash_check() {
        let dir = tmpdir("tamper");
        let cfg = config();
        write_full_store(&dir, &cfg);
        let victim = entry_paths(&dir, "corpus", "seed").remove(0);
        let text = std::fs::read_to_string(&victim).unwrap();
        // Flip one hex digit of the prog payload.
        let idx = text.rfind("prog = ").unwrap() + "prog = ".len() + 6;
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
        std::fs::write(&victim, bytes).unwrap();
        let loaded = open(&dir).unwrap();
        assert_eq!(loaded.seeds.len(), 1);
        assert_eq!(loaded.skips.corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_degrade_to_counted_foreign_skips() {
        // Two fleet jobs with different configs pointed at the SAME
        // directory: per-file atomicity + fingerprints mean whichever
        // manifest lands last owns the store; the other job's entries
        // load as counted foreign-config skips, never corruption.
        let dir = tmpdir("concurrent");
        let cfg_a = FuzzerConfig::eof(OsKind::FreeRtos, 7);
        let cfg_b = FuzzerConfig::eof(OsKind::FreeRtos, 8);
        assert_ne!(config_fingerprint(&cfg_a), config_fingerprint(&cfg_b));
        let mut store_a = CampaignStore::create(&dir, &cfg_a).unwrap();
        let mut store_b = CampaignStore::create(&dir, &cfg_b).unwrap();
        store_a.write_seed(&seed_entry("job-a", 0));
        store_a.record_crash(&crash_entry("fault in a"));
        store_b.write_seed(&seed_entry("job-b", 0));
        store_a.write_coverage(&[1, 2]);
        store_a.write_manifest(0.1, 2, 2, 1, 1, 10);
        store_b.write_coverage(&[3]);
        store_b.write_manifest(0.1, 1, 1, 1, 0, 10);
        let loaded = open(&dir).unwrap();
        assert_eq!(loaded.manifest.seed, 8, "job B's manifest landed last");
        assert_eq!(loaded.seeds.len(), 1);
        assert_eq!(loaded.seeds[0].prog.calls[0].api, "job-b");
        // Job A's seed + crash (and its coverage was overwritten, so it
        // does not count) show up as foreign-config skips.
        assert_eq!(loaded.skips.foreign_config, 2);
        assert_eq!(loaded.skips.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_only_our_stale_entries() {
        let dir = tmpdir("sweep");
        let cfg = config();
        let mut store = write_full_store(&dir, &cfg);
        // A foreign writer's seed sits in the same directory.
        let foreign_cfg = FuzzerConfig::eof(OsKind::FreeRtos, 99);
        let mut foreign = CampaignStore::create(&dir, &foreign_cfg).unwrap();
        foreign.write_seed(&seed_entry("foreign", 0));
        let keep_seed = seed_entry("alpha", 0).hash;
        let keep_crash = crash_entry("fault at 0x40").key_hash;
        store.sweep_stale(&BTreeSet::from([keep_seed]), &BTreeSet::from([keep_crash]));
        // "beta" (ours, stale) is gone; "alpha" and the foreign seed stay.
        assert_eq!(entry_paths(&dir, "corpus", "seed").len(), 2);
        store.write_manifest(0.5, 3, 3, 1, 1, 120);
        let loaded = open(&dir).unwrap();
        assert_eq!(loaded.seeds.len(), 1);
        assert_eq!(loaded.seeds[0].prog.calls[0].api, "alpha");
        assert_eq!(loaded.skips.foreign_config, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_leave_no_temp_droppings() {
        let dir = tmpdir("atomic");
        write_full_store(&dir, &config());
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let name = path.file_name().unwrap().to_string_lossy().to_string();
                    assert!(!name.contains(".tmp-"), "temp file left behind: {name}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_ignores_budget_but_not_knobs() {
        let base = config();
        let mut longer = base.clone();
        longer.budget_hours = 99.0;
        longer.snapshot_hours = 9.0;
        longer.persist = Some(PathBuf::from("/elsewhere"));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&longer));
        let mut other = base.clone();
        other.max_calls += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other));
        let mut other_seed = base.clone();
        other_seed.seed = 8;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_seed));
    }

    #[test]
    fn cmplog_splits_the_fingerprint_and_absent_key_reads_pure() {
        let base = config();
        let mut on = base.clone();
        on.cmplog = true;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&on));
        let dir = tmpdir("cmplog");
        let mut store = CampaignStore::create(&dir, &on).unwrap();
        store.write_manifest(0.1, 1, 1, 0, 0, 5);
        assert!(open(&dir).unwrap().manifest.cmplog);
        // Strip the key: a pre-cmplog manifest loads as a pure campaign.
        let path = dir.join("manifest.eof");
        let text = std::fs::read_to_string(&path).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("i2s"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, stripped).unwrap();
        assert!(!open(&dir).unwrap().manifest.cmplog);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coverage_backend_rides_the_manifest_outside_the_fingerprint() {
        let base = config();
        let mut trace = base.clone();
        trace.coverage_backend = CoverageKind::Trace;
        // Equivalence-gated knob: the store's contents are backend-
        // independent, so the fingerprint must not split on it.
        assert_eq!(config_fingerprint(&base), config_fingerprint(&trace));
        let dir = tmpdir("cov");
        let mut store = CampaignStore::create(&dir, &trace).unwrap();
        store.write_manifest(0.1, 1, 1, 0, 0, 5);
        assert_eq!(open(&dir).unwrap().manifest.coverage, CoverageKind::Trace);
        // Strip the key: a pre-trace manifest loads as a ring campaign.
        let path = dir.join("manifest.eof");
        let text = std::fs::read_to_string(&path).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("cov"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, stripped).unwrap();
        assert_eq!(open(&dir).unwrap().manifest.coverage, CoverageKind::Ring);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Pinned so stores stay readable across refactors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
