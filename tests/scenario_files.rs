//! Golden-file tests for the committed JSON scenario specs: every file
//! under `scenarios/` must parse, validate, and reprint canonically, and
//! the four paper scenarios must be *byte-identical* to their builtin
//! constructors — same canonical JSON, same emulation bit fingerprint.

use boinc_policy_emu::client::{ClientConfig, NetworkModel};
use boinc_policy_emu::core::spec::ScenarioSpec;
use boinc_policy_emu::core::{Emulator, EmulatorConfig, FaultConfig, Scenario};
use boinc_policy_emu::scenarios::{scenario2, scenario3, scenario4, ScenarioSource};
use boinc_policy_emu::types::SimDuration;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn read(name: &str) -> String {
    let path = scenarios_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fingerprint(s: Scenario) -> u64 {
    let cfg = EmulatorConfig { duration: SimDuration::from_hours(12.0), ..Default::default() };
    Emulator::new(s, ClientConfig::default(), cfg).run().bit_fingerprint()
}

/// The committed paper-scenario files are exactly the canonical dump of
/// the builtin constructors: golden at the byte level.
#[test]
fn paper_scenario_files_are_canonical_dumps_of_builtins() {
    for name in ["scenario1", "scenario2", "scenario3", "scenario4"] {
        let builtin = ScenarioSource::parse(&format!("builtin:{name}"))
            .load()
            .unwrap_or_else(|e| panic!("builtin {name}: {e}"))
            .scenario;
        let golden = ScenarioSpec::from_scenario(&builtin).to_canonical_json();
        assert_eq!(read(&format!("{name}.json")), golden, "{name}.json drifted from builtin");
    }
}

/// Loading the JSON file drives the emulator to the same bit fingerprint
/// as the builtin constructor.
#[test]
fn paper_scenario_files_emulate_bit_identically() {
    for (name, builtin) in
        [("scenario2", scenario2()), ("scenario3", scenario3()), ("scenario4", scenario4())]
    {
        let (loaded, faults) = ScenarioSpec::parse(&read(&format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}.json: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("{name}.json: {e}"));
        assert!(faults.is_none(), "paper scenarios carry no fault overlay");
        assert_eq!(fingerprint(loaded), fingerprint(builtin), "{name}.json diverged");
    }
}

/// Every committed scenario file — including the new families — parses,
/// validates, and is a fixed point of the canonical writer.
#[test]
fn all_scenario_files_validate_and_are_print_stable() {
    let mut seen = 0;
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(spec.to_canonical_json(), text, "{} is not canonical", path.display());
        spec.build().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    assert!(seen >= 8, "expected the 4 paper + 4 family scenario files, found {seen}");
}

/// The unreliable-hosts family layers a fault overlay; it must survive
/// the load path with its faults intact.
#[test]
fn unreliable_hosts_overlay_loads_with_faults() {
    let (_, faults) = ScenarioSpec::parse(&read("unreliable_hosts.json")).unwrap().build().unwrap();
    let faults = faults.expect("unreliable_hosts.json declares faults");
    assert!(faults.rpc_fail_prob > 0.0);
    assert!(faults.crash_mtbf.is_some());
}

/// `scenario2_transfers.json` is scenario2 with real file transfers
/// (4 MB in / 1 MB out per app over a symmetric 1 MB/s link), the input
/// of the fault study. It must be the canonical dump of exactly that
/// construction and emulate bit-identically to it, with transfer faults
/// drawing from the link.
#[test]
fn scenario2_transfers_file_is_scenario2_with_transfers() {
    let mut expected = scenario2();
    expected.name = "scenario2_transfers".into();
    for p in &mut expected.projects {
        for a in &mut p.apps {
            a.input_bytes = 4e6;
            a.output_bytes = 1e6;
        }
    }
    expected.network = Some(NetworkModel::symmetric(1e6));
    let text = read("scenario2_transfers.json");
    assert_eq!(text, ScenarioSpec::from_scenario(&expected).to_canonical_json());

    let (loaded, faults) = ScenarioSpec::parse(&text).unwrap().build().unwrap();
    assert!(faults.is_none(), "the fault study sweeps its own rates");
    let faulty = |s: Scenario| {
        let cfg = EmulatorConfig {
            duration: SimDuration::from_hours(12.0),
            faults: FaultConfig::with_failure_rate(0.1),
            ..Default::default()
        };
        let r = Emulator::new(s, ClientConfig::default(), cfg).run();
        assert!(r.faults.transfer_failures > 0, "transfers must draw from the fault stream");
        r.bit_fingerprint()
    };
    assert_eq!(fingerprint(loaded.clone()), fingerprint(expected.clone()));
    assert_eq!(faulty(loaded), faulty(expected));
}
