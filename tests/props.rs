//! Property-based tests on the core data structures and invariants.

use eof::monitors::{parse_kconfig, render_kconfig, Pattern};
use eof::prelude::*;
use eof::speclang::prog::{ArgValue, Call};
use eof::speclang::wire::{decode_prog, encode_prog, ApiBinding, ApiTable, WireOrder};
use proptest::prelude::*;

fn arb_arg() -> impl Strategy<Value = ArgValue> {
    prop_oneof![
        any::<u64>().prop_map(ArgValue::Int),
        (0u16..16).prop_map(ArgValue::ResourceRef),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(ArgValue::Buffer),
        "[a-z0-9_]{0,24}".prop_map(ArgValue::CString),
    ]
}

fn arb_prog() -> impl Strategy<Value = Prog> {
    proptest::collection::vec((0u16..4, proptest::collection::vec(arb_arg(), 0..5)), 0..10)
        .prop_map(|calls| Prog {
            mmio: vec![],
            calls: calls
                .into_iter()
                .map(|(id, args)| Call {
                    api: format!("api{id}"),
                    args,
                })
                .collect(),
        })
}

fn table() -> ApiTable {
    ApiTable::new((0u16..4).map(|id| ApiBinding {
        id,
        name: format!("api{id}"),
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prog_wire_roundtrip_little(prog in arb_prog()) {
        let t = table();
        let bytes = encode_prog(&prog, &t, WireOrder::Little).unwrap();
        let back = decode_prog(&bytes, &t, WireOrder::Little).unwrap();
        prop_assert_eq!(back, prog);
    }

    #[test]
    fn prog_wire_roundtrip_big(prog in arb_prog()) {
        let t = table();
        let bytes = encode_prog(&prog, &t, WireOrder::Big).unwrap();
        let back = decode_prog(&bytes, &t, WireOrder::Big).unwrap();
        prop_assert_eq!(back, prog);
    }

    #[test]
    fn wire_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_prog(&bytes, &table(), WireOrder::Little);
    }

    #[test]
    fn wire_decoder_never_panics_on_any_truncation(prog in arb_prog(), cut in 0usize..512) {
        let t = table();
        let bytes = encode_prog(&prog, &t, WireOrder::Little).unwrap();
        let cut = cut.min(bytes.len());
        let _ = decode_prog(&bytes[..cut], &t, WireOrder::Little);
    }

    #[test]
    fn remove_call_preserves_backward_references(prog in arb_prog(), idx in 0usize..10) {
        let mut p = prog;
        // Normalise: clamp refs backward so the input itself is valid.
        for i in 0..p.calls.len() {
            for a in &mut p.calls[i].args {
                if let ArgValue::ResourceRef(r) = a {
                    if i == 0 {
                        *a = ArgValue::Int(0);
                    } else {
                        *r %= i as u16;
                    }
                }
            }
        }
        prop_assert_eq!(p.first_invalid_ref(), None);
        p.remove_call(idx);
        prop_assert_eq!(p.first_invalid_ref(), None);
    }

    #[test]
    fn json_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x1000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
        let _ = eof::rtos::subsys::json::parse(&mut ctx, "t::json::p", &bytes);
    }

    #[test]
    fn http_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x1000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
        let _ = eof::rtos::subsys::http::parse_request(&mut ctx, "t::http::p", &bytes);
    }

    #[test]
    fn every_kernel_survives_arbitrary_invocations(
        os_idx in 0usize..5,
        calls in proptest::collection::vec((any::<u16>(), proptest::collection::vec(any::<u64>(), 0..6)), 1..30)
    ) {
        let os = OsKind::ALL[os_idx];
        let mut kernel = eof::rtos::registry::make_kernel(os);
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x2_0000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        for (api_id, args) in calls {
            let kargs: Vec<eof::rtos::api::KArg> =
                args.into_iter().map(eof::rtos::api::KArg::Int).collect();
            let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
            // Must never panic at the host level, whatever the input.
            let _ = kernel.invoke(&mut ctx, api_id, &kargs);
        }
    }

    #[test]
    fn heap_invariants_under_arbitrary_op_sequences(
        ops in proptest::collection::vec((any::<bool>(), 0u32..512), 1..60)
    ) {
        use eof::rtos::subsys::heap::FreeListHeap;
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x1000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
        let mut heap = FreeListHeap::new(4096);
        let mut live: Vec<u32> = Vec::new();
        for (is_alloc, v) in ops {
            if is_alloc {
                if let Ok(h) = heap.alloc(&mut ctx, "p::heap::a", v) {
                    live.push(h);
                }
            } else if !live.is_empty() {
                let h = live.remove((v as usize) % live.len());
                heap.free(&mut ctx, "p::heap::f", h).unwrap();
            }
            // The walk invariant must hold after every operation.
            prop_assert!(heap.check().is_ok());
        }
        prop_assert_eq!(heap.live_blocks(), live.len());
    }

    #[test]
    fn pattern_matcher_agrees_with_contains_for_plain_patterns(
        needle in "[a-zA-Z ]{1,12}",
        hay in "[a-zA-Z :._-]{0,64}"
    ) {
        let p = Pattern::new(&needle);
        prop_assert_eq!(p.matches(&hay), hay.contains(&needle));
    }

    #[test]
    fn kconfig_roundtrip(parts in proptest::collection::btree_map("[A-Z]{1,8}", (0u32..64, 1u32..64), 1..6)) {
        // Build a non-overlapping layout from the random sizes.
        let mut offset = 0u32;
        let mut list = Vec::new();
        for (name, (_gap, size_kb)) in &parts {
            let size = size_kb * 1024;
            list.push(eof::hal::Partition::new(name.to_lowercase(), offset, size));
            offset += size;
        }
        let table = eof::hal::PartitionTable::new(list, offset.max(1)).unwrap();
        let text = render_kconfig("arm", &table);
        let cfg = parse_kconfig(&text).unwrap();
        prop_assert_eq!(cfg.partition_table(offset.max(1)).unwrap(), table);
    }

    #[test]
    fn generated_progs_always_conform(seed in any::<u64>()) {
        let spec = parse_spec(&extract_spec_text(OsKind::RtThread)).unwrap();
        let mut g = Generator::new(spec, seed, GenerationMode::ApiAware, 6);
        for _ in 0..5 {
            let p = g.generate();
            prop_assert!(p.conforms_to(g.spec()));
            let m = g.mutate(&p);
            prop_assert!(m.conforms_to(g.spec()));
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrent persist-store writers
// ---------------------------------------------------------------------------
//
// Two fleet jobs pointed at the same store directory must never tear
// each other's entries. The store earns this without locks: every seed
// is a content-addressed file written atomically (temp + rename), so a
// reader sees either one writer's whole record or the other's, and
// entries written under a foreign configuration load as counted skips.

use eof::core::{config_fingerprint, persist::PersistedSeed, CampaignStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn store_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eof-props-store-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic-but-valid persisted seed: the hash really is the prog's
/// stable hash, so the store's integrity check accepts it.
fn synthetic_seed(i: u64) -> PersistedSeed {
    let prog = Prog {
        mmio: vec![],
        calls: vec![Call {
            api: format!("api{}", i % 4),
            args: vec![ArgValue::Int(i)],
        }],
    };
    PersistedSeed {
        hash: prog.stable_hash(),
        ordinal: i,
        new_edges: (i % 7) as usize,
        crashed: false,
        replay_edges: (i % 5) as usize,
        prog,
    }
}

#[test]
fn store_truly_concurrent_writers_tear_nothing() {
    // Two OS threads, each a campaign store of its own configuration,
    // race seed-by-seed writes into one directory. Overlapping hashes
    // land last-writer-wins; whatever the interleaving, every entry is
    // whole and belongs to exactly one of the two writers.
    let dir = store_dir("threads");
    let cfg_a = FuzzerConfig::eof(OsKind::FreeRtos, 7);
    let cfg_b = FuzzerConfig::eof(OsKind::FreeRtos, 8);
    assert_ne!(config_fingerprint(&cfg_a), config_fingerprint(&cfg_b));
    let seeds: Vec<PersistedSeed> = (0..48).map(synthetic_seed).collect();
    // Overlapping halves: [0, 32) and [16, 48) share a middle third.
    let writer = |config: FuzzerConfig, batch: Vec<PersistedSeed>| {
        let dir = dir.clone();
        std::thread::spawn(move || {
            let mut store = CampaignStore::create(&dir, &config).unwrap();
            for seed in &batch {
                store.write_seed(seed);
            }
            store
        })
    };
    let ta = writer(cfg_a, seeds[..32].to_vec());
    let tb = writer(cfg_b, seeds[16..].to_vec());
    let mut store_a = ta.join().unwrap();
    let store_b = tb.join().unwrap();
    assert_eq!(store_a.write_errors(), 0, "writer A hit write errors");
    assert_eq!(store_b.write_errors(), 0, "writer B hit write errors");

    // Writer A finalizes, so the directory loads under A's config.
    store_a.write_coverage(&[1, 2]);
    store_a.write_manifest(0.1, 0, 0, 0, 0, 0);
    let loaded = eof::core::persist::open(&dir).unwrap();
    assert_eq!(loaded.skips.corrupt, 0, "a racing writer tore an entry");
    assert_eq!(loaded.skips.foreign_schema, 0);
    assert_eq!(
        loaded.seeds.len() + loaded.skips.foreign_config,
        seeds.len(),
        "every seed file is A's or B's, none lost"
    );
    let got: std::collections::BTreeSet<u64> = loaded.seeds.iter().map(|s| s.hash).collect();
    for seed in &seeds[..16] {
        assert!(got.contains(&seed.hash), "A's unshared seed was lost");
    }
    for seed in &seeds[32..] {
        assert!(!got.contains(&seed.hash), "B's seed loaded as A's");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Store and telemetry decoders
// ---------------------------------------------------------------------------
//
// Store files and worker telemetry summaries are read back from disk,
// where a crash, a torn write or a foreign process can leave any bytes.
// Their decoders must reject what they cannot read, never panic, and
// read back exactly what their encoders wrote.

use eof::core::persist::{open, scan_crashes};
use eof::core::{DetectionSource, PersistedCrash};
use eof_telemetry::{Histogram, OpStats, SpanAgg, TelemetrySummary};

fn arb_crash() -> impl Strategy<Value = PersistedCrash> {
    (
        (
            "[ -~]{0,24}",
            0usize..5,
            "[ -~]{0,32}",
            proptest::collection::vec("[a-z0-9_]{1,12}", 0..4),
        ),
        (0usize..4, any::<u8>(), any::<bool>(), 0u32..1_000_000),
        (
            arb_prog(),
            proptest::collection::vec(any::<u8>(), 0..8),
            any::<bool>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |((key, os, message, backtrace), (source, bug, triaged, milli), (prog, mmio, c, m))| {
                PersistedCrash {
                    key_hash: eof::core::persist::fnv64(key.as_bytes()),
                    key,
                    os: OsKind::ALL[os],
                    message,
                    backtrace,
                    source: [
                        DetectionSource::ExceptionMonitor,
                        DetectionSource::LogMonitor,
                        DetectionSource::Timeout,
                        DetectionSource::StallWatchdog,
                    ][source],
                    bug_number: triaged.then_some(bug),
                    at_hours: f64::from(milli) / 1000.0,
                    prog: Prog { mmio, ..prog },
                    confirmed: c,
                    minimized: m,
                }
            },
        )
}

fn arb_seed() -> impl Strategy<Value = PersistedSeed> {
    (
        arb_prog(),
        any::<u64>(),
        0usize..4096,
        any::<bool>(),
        0usize..4096,
    )
        .prop_map(
            |(prog, ordinal, new_edges, crashed, replay_edges)| PersistedSeed {
                hash: prog.stable_hash(),
                ordinal,
                new_edges,
                crashed,
                replay_edges,
                prog,
            },
        )
}

/// A store holding one seed, one crash and `edges`, finalized.
fn write_store(
    tag: &str,
    seed: &PersistedSeed,
    crash: &PersistedCrash,
    edges: &[u64],
) -> (PathBuf, u64) {
    let dir = store_dir(tag);
    let config = FuzzerConfig::eof(OsKind::Zephyr, 3);
    let mut store = CampaignStore::create(&dir, &config).unwrap();
    store.write_seed(seed);
    store.record_crash(crash);
    store.write_coverage(edges);
    store.write_manifest(0.5, edges.len(), edges.len(), 1, 1, 99);
    (dir, config_fingerprint(&config))
}

/// Every file a finalized store holds, manifest first.
fn store_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files = vec![dir.join("manifest.eof"), dir.join("coverage")];
    for sub in ["corpus", "crashes"] {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir.join(sub))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        files.extend(entries);
    }
    files
}

/// `base` damaged by `how`: replaced whole, spliced, truncated, or one
/// line's value swapped for `junk`.
fn damage(base: &str, how: u8, at: usize, junk: &[u8]) -> Vec<u8> {
    let bytes = base.as_bytes();
    let at = at % (bytes.len() + 1);
    match how % 4 {
        0 => junk.to_vec(),
        1 => [&bytes[..at], junk, &bytes[at..]].concat(),
        2 => bytes[..at].to_vec(),
        _ => {
            let lines: Vec<&str> = base.lines().collect();
            let victim = at % lines.len().max(1);
            let junk = String::from_utf8_lossy(junk);
            let mut out = String::new();
            for (i, line) in lines.iter().enumerate() {
                match line.split_once(" = ") {
                    Some((k, _)) if i == victim => out.push_str(&format!("{k} = {junk}\n")),
                    _ => out.push_str(&format!("{line}\n")),
                }
            }
            out.into_bytes()
        }
    }
}

fn arb_hist() -> impl Strategy<Value = Histogram> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec((0usize..65, any::<u64>()), 0..6),
    )
        .prop_map(|((count, sum, max), buckets)| {
            let mut h = Histogram {
                count,
                sum,
                max,
                ..Histogram::default()
            };
            for (i, n) in buckets {
                h.buckets[i] = n;
            }
            h
        })
}

fn key(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

fn arb_summary() -> impl Strategy<Value = TelemetrySummary> {
    (
        (0usize..64, any::<u64>(), any::<u64>()),
        proptest::collection::btree_map("[a-z_.]{1,16}", any::<u64>(), 0..6),
        proptest::collection::btree_map("[a-z_.]{1,16}", arb_hist(), 0..3),
        proptest::collection::btree_map(
            "[a-z_.]{1,16}",
            (any::<u64>(), any::<u64>(), any::<u64>()),
            0..4,
        ),
        proptest::collection::btree_map(
            "[a-z_.]{1,16}",
            (any::<u64>(), any::<u64>(), arb_hist()),
            0..3,
        ),
    )
        .prop_map(
            |((parts, spans_dropped, events_dropped), c, h, s, o)| TelemetrySummary {
                parts,
                counters: c.into_iter().map(|(k, v)| (key(k), v)).collect(),
                hists: h.into_iter().map(|(k, v)| (key(k), v)).collect(),
                spans: s
                    .into_iter()
                    .map(|(k, (count, total_cycles, max_cycles))| {
                        let agg = SpanAgg {
                            count,
                            total_cycles,
                            max_cycles,
                        };
                        (key(k), agg)
                    })
                    .collect(),
                ops: o
                    .into_iter()
                    .map(|(k, (count, errors, cycles))| {
                        let op = OpStats {
                            count,
                            errors,
                            cycles,
                        };
                        (key(k), op)
                    })
                    .collect(),
                spans_dropped,
                events_dropped,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_entries_round_trip(
        seed in arb_seed(),
        crash in arb_crash(),
        edges in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let (dir, fingerprint) = write_store("roundtrip", &seed, &crash, &edges);
        let loaded = open(&dir).unwrap();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        let (scanned, scan_skips) = scan_crashes(&dir, fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(loaded.skips, eof::core::SkipStats::default());
        prop_assert_eq!(loaded.seeds, vec![seed]);
        prop_assert_eq!(&loaded.crashes, &vec![crash]);
        prop_assert_eq!(loaded.coverage_edges, sorted);
        prop_assert_eq!(loaded.manifest.execs, 99);
        prop_assert_eq!(scanned, loaded.crashes);
        prop_assert_eq!(scan_skips, eof::core::SkipStats::default());
    }

    #[test]
    fn store_decoders_never_panic_on_damaged_files(
        seed in arb_seed(),
        crash in arb_crash(),
        target in (0usize..4, any::<u8>(), any::<usize>()),
        junk in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let (which, how, at) = target;
        let (dir, fingerprint) = write_store("damaged", &seed, &crash, &[5, 1]);
        let file = store_files(&dir)[which].clone();
        let base = std::fs::read_to_string(&file).unwrap();
        std::fs::write(&file, damage(&base, how, at, &junk)).unwrap();
        let _ = open(&dir);
        let _ = scan_crashes(&dir, fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_summaries_round_trip(summary in arb_summary()) {
        let text = summary.to_json();
        prop_assert_eq!(TelemetrySummary::from_json(&text).unwrap(), summary);
    }

    #[test]
    fn telemetry_decoder_never_panics(
        summary in arb_summary(),
        how in any::<u8>(),
        at in any::<usize>(),
        junk in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let text = String::from_utf8_lossy(&damage(&summary.to_json(), how, at, &junk)).into_owned();
        let _ = TelemetrySummary::from_json(&text);
    }
}
