//! Pins the store fingerprint of every preset configuration: the EOF
//! workloads on every OS, the four baselines, and the liveness arms of
//! the `ablate_power`/`ablate_watchdogs` benches. A store is owned by the
//! fingerprint it was written under, so a change to how a config renders
//! into it (a renamed field, a regrouped knob) orphans every existing
//! store, the checked-in regression corpus included. Any such change must
//! show up here.
//!
//! Assumes `EOF_CMPLOG` is unset, like the rest of the suite.

use eof::core::config_fingerprint;
use eof::prelude::*;

/// `(label, preset)` for every configuration the project builds.
fn presets() -> Vec<(String, FuzzerConfig)> {
    let mut presets = Vec::new();
    for os in OsKind::ALL {
        presets.push((format!("eof {os:?}"), FuzzerConfig::eof(os, 1)));
        presets.push((
            format!("eof_driver {os:?}"),
            FuzzerConfig::eof_driver(os, 1),
        ));
        presets.push((
            format!("eof_cmplog {os:?}"),
            FuzzerConfig::eof_cmplog(os, 1),
        ));
        presets.push((format!("eof_nf {os:?}"), FuzzerConfig::eof_nf(os, 1)));
    }
    let baselines = [
        BaselineKind::Tardis.full_system_config(OsKind::Zephyr, 1),
        BaselineKind::Gustave.full_system_config(OsKind::PokOs, 1),
        BaselineKind::GdbFuzz.app_level_config(1),
        BaselineKind::Shift.app_level_config(1),
    ];
    for (name, cfg) in ["tardis", "gustave", "gdbfuzz", "shift"]
        .into_iter()
        .zip(baselines)
    {
        presets.push((name.to_string(), cfg.expect("supported target")));
    }
    // The liveness arms of the ablation benches, seeded as they are.
    for os in [OsKind::Zephyr, OsKind::NuttX, OsKind::RtThread] {
        let pc = FuzzerConfig::eof(os, 42);
        let mut power = pc.clone();
        power.detection.liveness = LivenessChannel::Power;
        let mut timeout = pc.clone();
        timeout.detection.liveness = LivenessChannel::Timeout { secs: 15 };
        presets.push((format!("pc-stall {os:?}"), pc));
        presets.push((format!("power {os:?}"), power));
        presets.push((format!("timeout-15s {os:?}"), timeout));
    }
    presets
}

const PINNED: [(&str, u64); 33] = [
    ("eof FreeRtos", 0xa34812bb8ea7f2e4),
    ("eof_driver FreeRtos", 0xef43a4bfe2b6688a),
    ("eof_cmplog FreeRtos", 0x662623cf2fe996e4),
    ("eof_nf FreeRtos", 0x2af7ee04fe24faea),
    ("eof RtThread", 0xf7405c2217a63412),
    ("eof_driver RtThread", 0x3713e133b7d3434c),
    ("eof_cmplog RtThread", 0x670606dbbcbac9d2),
    ("eof_nf RtThread", 0xe2074ab4f6622be0),
    ("eof NuttX", 0x83a048f7707ebc02),
    ("eof_driver NuttX", 0x44dfaa53a07631dc),
    ("eof_cmplog NuttX", 0x271188a7f88eb922),
    ("eof_nf NuttX", 0x8517653303178e10),
    ("eof Zephyr", 0xc864a858645b9624),
    ("eof_driver Zephyr", 0xcb2a5119f5f63dca),
    ("eof_cmplog Zephyr", 0x1b6525ed8f7eda24),
    ("eof_nf Zephyr", 0xd53aa7a54f3fdd2a),
    ("eof PokOs", 0x4a940ddc8cc67f5e),
    ("eof_driver PokOs", 0xa285ab3e710156b0),
    ("eof_cmplog PokOs", 0x31677cd4fcd7a1c6),
    ("eof_nf PokOs", 0x4a909fdd7e1b337c),
    ("tardis", 0x72f7ecc68eba4dd7),
    ("gustave", 0x8fa91c44ffce14fd),
    ("gdbfuzz", 0xa197309a204f4bdf),
    ("shift", 0xa0ac3937ddc8defb),
    ("pc-stall Zephyr", 0x9b72586837212e67),
    ("power Zephyr", 0x69c267a5bc0b0f29),
    ("timeout-15s Zephyr", 0x2d318c3c3f1088b1),
    ("pc-stall NuttX", 0xfb61ac159c28c15d),
    ("power NuttX", 0xbeacf892f8791b17),
    ("timeout-15s NuttX", 0xa05b7e1755747c8b),
    ("pc-stall RtThread", 0x10a6d8da27cceb6d),
    ("power RtThread", 0x9276bb183683c467),
    ("timeout-15s RtThread", 0x9c53b6d6607a479b),
];

#[test]
fn every_preset_keeps_its_store_fingerprint() {
    let presets = presets();
    assert_eq!(presets.len(), PINNED.len());
    for ((name, cfg), (pinned_name, pinned)) in presets.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        let got = config_fingerprint(cfg);
        assert_eq!(
            got, pinned,
            "{name}: fingerprint {got:#018x}, pinned {pinned:#018x}"
        );
    }
}
