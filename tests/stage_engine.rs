//! Integration tests for the trait-based stage engine: parallel
//! determinism on generated chips and custom-stage registration.

use diic::core::{
    check_cif, check_with_engine, CheckContext, CheckOptions, PipelineStage, StageEngine,
};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::tech::nmos::nmos_technology;

/// The headline engine guarantee: with `parallelism > 1` the interaction
/// stage produces a byte-identical ordered violation list (and identical
/// pruning statistics) to the serial run — on a generated chip with
/// injected errors, under both search engines.
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
    for hierarchical in [true, false] {
        let serial = check_cif(
            &chip.cif,
            &tech,
            &CheckOptions {
                hierarchical,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert!(
            !serial.violations.is_empty(),
            "injected errors must produce violations"
        );
        for parallelism in [2usize, 4, 0] {
            let parallel = check_cif(
                &chip.cif,
                &tech,
                &CheckOptions {
                    hierarchical,
                    parallelism,
                    ..CheckOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                serial.violations, parallel.violations,
                "hier={hierarchical} workers={parallelism}: ordered violation lists diverge"
            );
            assert_eq!(
                serial.interact_stats, parallel.interact_stats,
                "hier={hierarchical} workers={parallelism}: stats diverge"
            );
        }
    }
}

/// A custom no-op stage can be registered on the standard pipeline and
/// shows up in the generic per-stage timing profile.
#[test]
fn custom_noop_stage_is_registered_and_timed() {
    struct NoopStage;
    impl PipelineStage for NoopStage {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn run(&self, _ctx: &mut CheckContext<'_>) {}
    }

    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(2, 1));
    let layout = diic::cif::parse(&chip.cif).unwrap();

    let mut engine = StageEngine::diic_pipeline();
    engine.register(Box::new(NoopStage));
    assert!(engine.stage_names().contains(&"noop"));

    let report = check_with_engine(&engine, &layout, &tech, &CheckOptions::default());
    let noop = report
        .stage_profile
        .iter()
        .find(|s| s.name == "noop")
        .expect("registered no-op stage must appear in the stage profile");
    assert_eq!(noop.violations, 0);

    // The extra stage must not change the verdict of the standard run.
    let baseline = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    assert_eq!(report.violations, baseline.violations);
    assert_eq!(report.stage_profile.len(), baseline.stage_profile.len() + 1);
}
