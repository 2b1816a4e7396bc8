//! Integration test for the pipeline: parallel determinism on generated
//! chips.

use diic::core::{check_cif, CheckOptions};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::tech::nmos::nmos_technology;

/// The headline pipeline guarantee: with `parallelism > 1` the interaction
/// stage produces a byte-identical ordered violation list (and identical
/// pruning statistics) to the serial run — on a generated chip with
/// injected errors.
#[test]
fn parallel_and_serial_runs_are_identical() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        5,
        3,
        vec![
            ErrorKind::NarrowWire,
            ErrorKind::CloseSpacing,
            ErrorKind::AccidentalTransistor,
            ErrorKind::ButtedBoxes,
        ],
        42,
    ));
    let serial = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    assert!(
        !serial.violations.is_empty(),
        "injected errors must produce violations"
    );
    for parallelism in [2usize, 4, 0] {
        let parallel = check_cif(
            &chip.cif,
            &tech,
            &CheckOptions {
                parallelism,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            serial.violations, parallel.violations,
            "workers={parallelism}: ordered violation lists diverge"
        );
        assert_eq!(
            serial.interact_stats, parallel.interact_stats,
            "workers={parallelism}: stats diverge"
        );
    }
}
