//! Memoized campaign artifacts: images and validated specifications.
//!
//! A multi-rep benchmark runs the same `(os, profile, instrumentation)`
//! image build and the same `(os, noise, validation)` spec pipeline once
//! per repetition, even though both are pure functions of their inputs.
//! At bench scale (five reps × a dozen configs × five kernels) that is
//! hundreds of redundant megabyte-scale builds. This module interns both
//! artifacts in process-wide caches so each distinct key is computed
//! exactly once, no matter how many campaigns — serial or fleet-parallel
//! — ask for it.
//!
//! Concurrency model: a `parking_lot::Mutex` guards only the key → cell
//! registry; each cell is an `Arc<OnceLock<…>>`, so the (potentially
//! slow) build runs *outside* the map lock and concurrent requesters of
//! the same key block on the cell, not on each other's unrelated builds.
//! Hit/miss counters feed the bench reports.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use eof_coverage::InstrumentMode;
use eof_rtos::image::{build_image, ImageProfile};
use eof_rtos::OsKind;
use eof_specgen::{generate_validated_scoped, GenReport, NoiseConfig};
use eof_speclang::ast::SpecFile;
use parking_lot::Mutex;

/// Cache key for instrumented kernel images.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImageKey {
    /// Target kernel.
    pub os: OsKind,
    /// Image scope (full system vs application-level).
    pub profile: ImageProfile,
    /// Coverage instrumentation baked into the image.
    pub instrument: InstrumentMode,
}

/// Cache key for validated spec pipelines. `NoiseConfig` carries an
/// `f64` rate, stored here by bit pattern to stay `Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecKey {
    /// Target kernel.
    pub os: OsKind,
    /// Noise RNG seed.
    pub noise_seed: u64,
    /// `NoiseConfig::defect_rate` bits.
    pub noise_rate_bits: u64,
    /// Whether the validation pass ran.
    pub validate: bool,
    /// Whether the SPI/I2C/DMA driver APIs are in scope.
    pub drivers: bool,
}

impl SpecKey {
    fn new(os: OsKind, noise: &NoiseConfig, validate: bool, drivers: bool) -> Self {
        SpecKey {
            os,
            noise_seed: noise.seed,
            noise_rate_bits: noise.defect_rate.to_bits(),
            validate,
            drivers,
        }
    }
}

/// One memo table: registry of per-key init cells plus counters.
struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo {
            cells: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Return the cached value for `key`, building it with `build` on
    /// first request. Exactly one caller per key builds; everyone else
    /// (including callers racing the builder) counts as a hit.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(
            self.cells
                .lock()
                .entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        let mut built = false;
        let value = cell.get_or_init(|| {
            built = true;
            build()
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
    }

    fn clear(&self) {
        self.cells.lock().clear();
    }

    fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

fn image_cache() -> &'static Memo<ImageKey, Arc<Vec<u8>>> {
    static CACHE: OnceLock<Memo<ImageKey, Arc<Vec<u8>>>> = OnceLock::new();
    CACHE.get_or_init(Memo::new)
}

fn spec_cache() -> &'static Memo<SpecKey, Arc<(SpecFile, GenReport)>> {
    static CACHE: OnceLock<Memo<SpecKey, Arc<(SpecFile, GenReport)>>> = OnceLock::new();
    CACHE.get_or_init(Memo::new)
}

/// The instrumented image for `(os, profile, instrument)`, built at most
/// once per process. The bytes are shared — clone out of the `Arc` only
/// where an owned copy is genuinely needed (e.g. the restoration golden
/// image).
pub fn cached_image(
    os: OsKind,
    profile: ImageProfile,
    instrument: &InstrumentMode,
) -> Arc<Vec<u8>> {
    image_cache().get_or_build(
        ImageKey {
            os,
            profile,
            instrument: instrument.clone(),
        },
        || Arc::new(build_image(os, profile, instrument)),
    )
}

/// The validated spec pipeline output for `(os, noise, validate)`, run
/// at most once per process. Campaigns clone the `SpecFile` out because
/// they mutate it (pseudo-API and module filtering); the expensive part
/// — extraction, noising, validation — is what the cache saves.
pub fn cached_spec(os: OsKind, noise: &NoiseConfig, validate: bool) -> Arc<(SpecFile, GenReport)> {
    cached_spec_scoped(os, noise, validate, false)
}

/// [`cached_spec`] with an explicit driver-layer scope; `drivers` keys a
/// separate cache entry carrying the SPI/I2C/DMA APIs.
pub fn cached_spec_scoped(
    os: OsKind,
    noise: &NoiseConfig,
    validate: bool,
    drivers: bool,
) -> Arc<(SpecFile, GenReport)> {
    spec_cache().get_or_build(SpecKey::new(os, noise, validate, drivers), || {
        Arc::new(generate_validated_scoped(os, noise, validate, drivers))
    })
}

/// Cache effectiveness counters (process-wide, monotonic since the last
/// [`reset_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Image requests served from cache.
    pub image_hits: u64,
    /// Image requests that built.
    pub image_misses: u64,
    /// Spec requests served from cache.
    pub spec_hits: u64,
    /// Spec requests that ran the pipeline.
    pub spec_misses: u64,
}

impl CacheStats {
    /// All requests served from cache.
    pub fn hits(&self) -> u64 {
        self.image_hits + self.spec_hits
    }

    /// All requests that had to compute.
    pub fn misses(&self) -> u64 {
        self.image_misses + self.spec_misses
    }

    /// Fraction of requests served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// Current counter values.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        image_hits: image_cache().hits.load(Ordering::Relaxed),
        image_misses: image_cache().misses.load(Ordering::Relaxed),
        spec_hits: spec_cache().hits.load(Ordering::Relaxed),
        spec_misses: spec_cache().misses.load(Ordering::Relaxed),
    }
}

/// Zero the counters (bench sections report per-phase deltas).
pub fn reset_cache_stats() {
    image_cache().reset_counters();
    spec_cache().reset_counters();
}

/// Drop every cached artifact (tests that must observe fresh builds).
/// Counters are left alone; pair with [`reset_cache_stats`] as needed.
pub fn clear_caches() {
    image_cache().clear();
    spec_cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_specgen::generate_validated;

    // Counter-exact assertions run against a private `Memo`: the global
    // caches are shared by every concurrently-running test (campaign
    // tests included), so their counters are only monotonic, not exact.
    #[test]
    fn memo_counts_one_miss_then_hits() {
        let memo: Memo<u32, u64> = Memo::new();
        assert_eq!(memo.get_or_build(7, || 42), 42);
        assert_eq!(memo.get_or_build(7, || unreachable!("cached")), 42);
        assert_eq!(memo.get_or_build(9, || 43), 43);
        assert_eq!(memo.misses.load(Ordering::Relaxed), 2);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 1);
        memo.reset_counters();
        memo.clear();
        assert_eq!(memo.get_or_build(7, || 44), 44, "clear drops entries");
        assert_eq!(memo.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn identical_keys_hit_and_share() {
        let before = cache_stats();
        let a = cached_image(
            OsKind::FreeRtos,
            ImageProfile::FullSystem,
            &InstrumentMode::Full,
        );
        let b = cached_image(
            OsKind::FreeRtos,
            ImageProfile::FullSystem,
            &InstrumentMode::Full,
        );
        assert!(Arc::ptr_eq(&a, &b), "same key must share one build");
        let after = cache_stats();
        assert!(
            after.image_hits > before.image_hits,
            "{before:?} → {after:?}"
        );
    }

    #[test]
    fn cached_images_match_fresh_builds_on_every_os() {
        for os in OsKind::ALL {
            for profile in [ImageProfile::FullSystem, ImageProfile::AppLevel] {
                let cached = cached_image(os, profile, &InstrumentMode::Full);
                let fresh = build_image(os, profile, &InstrumentMode::Full);
                assert_eq!(
                    *cached, fresh,
                    "{os} {profile:?}: cache must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn distinct_instrumentation_gets_distinct_entries() {
        let full = cached_image(
            OsKind::Zephyr,
            ImageProfile::FullSystem,
            &InstrumentMode::Full,
        );
        let none = cached_image(
            OsKind::Zephyr,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        assert_ne!(*full, *none, "instrumentation must change the image");
    }

    #[test]
    fn cached_specs_match_fresh_runs() {
        let noise = NoiseConfig::default_llm(9);
        let cached = cached_spec(OsKind::NuttX, &noise, true);
        let (spec, report) = generate_validated(OsKind::NuttX, &noise, true);
        assert_eq!(cached.0, spec);
        assert_eq!(cached.1.admitted_apis, report.admitted_apis);
        let again = cached_spec(OsKind::NuttX, &noise, true);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn noise_rate_is_part_of_the_key() {
        let a = cached_spec(OsKind::RtThread, &NoiseConfig::default_llm(3), true);
        let b = cached_spec(OsKind::RtThread, &NoiseConfig::none(), true);
        assert!(!Arc::ptr_eq(&a, &b), "different noise must not alias");
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let memo: Memo<u8, Arc<Vec<u8>>> = Memo::new();
        let values: Vec<Arc<Vec<u8>>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|_| {
                        memo.get_or_build(1, || {
                            Arc::new(build_image(
                                OsKind::PokOs,
                                ImageProfile::FullSystem,
                                &InstrumentMode::Full,
                            ))
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        for pair in values.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(memo.misses.load(Ordering::Relaxed), 1);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 3);
    }
}
