//! The design checker: the paper's Fig. 10 pipeline, end to end.
//!
//! ```text
//! PARSE CIF → CHECK ELEMENTS → CHECK PRIMITIVE SYMBOLS →
//! CHECK LEGAL CONNECTIONS → GENERATE HIERARCHICAL NET LIST →
//! CHECK INTERACTIONS  (+ non-geometric construction rules)
//! ```
//!
//! [`check`] runs that sequence — one function in [`crate::engine`],
//! every step in order — and returns each step's wall clock in
//! [`CheckReport::stage_profile`]; [`check_with_sink`] runs it with the
//! violations emitted through a caller's [`Sink`]. The flat mask-level
//! baseline is a separate checker, [`crate::flat_check`].

use crate::binding::{InstantiateStats, StringInterner};
use crate::engine::{run_pipeline, DiagnosticSink, Sink, StageEngine, StageTime};
use crate::interact::InteractStats;
use crate::library::BoundTechnology;
use crate::scope::ScopeStats;
use crate::violations::{CheckStage, Violation};
use diic_cif::Layout;
use diic_geom::SizingMode;
use diic_netlist::Netlist;
use diic_tech::Technology;

/// Configuration of a full check run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Suppress same-net spacing checks (Fig. 5a). Default true.
    pub same_net_suppression: bool,
    /// Spacing metric. Default Euclidean.
    pub metric: SizingMode,
    /// Read by nothing: there is one interaction search. Kept only
    /// because the frozen repo benchmark (`benchmark/`, which a change
    /// may not edit) sets it in a struct literal.
    #[doc(hidden)]
    pub hierarchical: bool,
    /// Run the non-geometric construction rules. Default true.
    pub erc: bool,
    /// Compare the extracted net list against an intended one.
    pub intended_netlist: Option<Netlist>,
    /// Worker threads for the connection, net-list and interaction
    /// stages. `1` (the default) runs serially; `0` uses all available
    /// cores; any other value spawns that many scoped workers. Serial
    /// and parallel runs produce byte-identical reports.
    pub parallelism: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            same_net_suppression: true,
            metric: SizingMode::Euclidean,
            hierarchical: true,
            erc: true,
            intended_netlist: None,
            parallelism: 1,
        }
    }
}

impl CheckOptions {
    /// The effective worker count: `0` clamped to all available cores,
    /// through the same [`crate::parallel::effective_parallelism`] that
    /// resolves [`crate::FlatOptions::parallelism`] — the two knobs
    /// cannot disagree on what `0` means.
    pub fn effective_parallelism(&self) -> usize {
        crate::parallel::effective_parallelism(self.parallelism)
    }
}

/// The result of a full check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// All violations from all stages.
    pub violations: Vec<Violation>,
    /// The extracted hierarchical net list.
    pub netlist: Netlist,
    /// Interaction-stage statistics (pruning counters, cache hits).
    pub interact_stats: InteractStats,
    /// Wall clock and violation count of each pipeline step, in run
    /// order: `instantiate`, `elements`, `primitives`, `connections`,
    /// `netlist`, `interactions`, `composition`. Empty for an edit
    /// session's report: its open drops the profile, and an edit
    /// patches the report instead of running the steps.
    pub stage_profile: Vec<StageTime>,
    /// Devices waived by the immunity flag.
    pub waived_devices: Vec<String>,
    /// Number of elements instantiated.
    pub element_count: usize,
    /// Number of device instances.
    pub device_count: usize,
    /// How the view was instantiated: templates built, instances and
    /// elements stamped, elements walked, strings interned. An edit session reports its last whole instantiation
    /// (its open, or its latest full rebuild).
    pub instantiate_stats: InstantiateStats,
    /// What the scope table was worth: scopes, neighbour-search cost,
    /// connection verdict rows built and stamped, and the share of the
    /// chip in repeated scopes. An edit session reports its last whole
    /// check (its open, or its latest full rebuild); the flat baseline,
    /// which builds no view, reports zeros.
    pub scope_stats: ScopeStats,
}

impl CheckReport {
    /// True if no violations were found — trustworthy for **any** sink.
    /// A streaming or counting run buffers nothing in `violations`, so
    /// this also consults the per-stage profile counts (which record
    /// what the sink *accepted*, flushed or not); a dirty chip checked
    /// through a [`CountingSink`](crate::engine::CountingSink) must
    /// never read as clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stage_profile.iter().all(|s| s.violations == 0)
    }

    /// Violations of a given stage.
    pub fn by_stage(&self, stage: CheckStage) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| v.stage == stage)
            .collect()
    }
}

/// Runs the full DIIC pipeline over a parsed layout.
pub fn check(layout: &Layout, tech: &Technology, options: &CheckOptions) -> CheckReport {
    let mut sink = DiagnosticSink::new();
    check_with_sink(&StageEngine, layout, tech, options, &mut sink)
}

/// Runs the pipeline with violations emitted through a caller-supplied
/// [`Sink`] instead of an in-memory buffer — the
/// bounded-memory entry point. With a
/// [`StreamingSink`](crate::engine::StreamingSink) or
/// [`CountingSink`](crate::engine::CountingSink) the run holds at most
/// one sink chunk of diagnostics at any time; the returned report then
/// carries empty `violations` (the sink saw every one) but the full
/// stage profile, statistics, and counts. [`CheckReport::is_clean`] stays
/// trustworthy (it also reads the per-stage counts), but
/// [`CheckReport::by_stage`] and [`crate::report::format_report`] only
/// see what was buffered — read the sink for content. `_engine` selects
/// nothing: there is one pipeline.
pub fn check_with_sink(
    _engine: &StageEngine,
    layout: &Layout,
    tech: &Technology,
    options: &CheckOptions,
    sink: &mut dyn Sink,
) -> CheckReport {
    let bound = BoundTechnology::new(tech);
    let seed = StringInterner::default();
    run_pipeline(layout, tech, options, &bound, None, seed, sink).0
}

/// Convenience: parse CIF text and check it in one call.
///
/// # Errors
///
/// Returns the parser's [`diic_cif::Diagnostic`] if the text is
/// malformed (render it against `cif` for the caret view); rule
/// violations are reported in the [`CheckReport`], not as errors.
pub fn check_cif(
    cif: &str,
    tech: &Technology,
    options: &CheckOptions,
) -> Result<CheckReport, diic_cif::Diagnostic> {
    let layout = diic_cif::parse(cif)?;
    Ok(check(&layout, tech, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violations::ViolationKind;
    use diic_tech::nmos::nmos_technology;

    #[test]
    fn clean_layout_is_clean() {
        let tech = nmos_technology();
        let r = check_cif(
            "L NM; 9N VDD; B 10000 750 5000 375;
             L NM; 9N GND; B 10000 750 5000 3000;
             9L VDD NM 1000 375; 9L GND NM 1000 3000; E",
            &tech,
            &CheckOptions {
                erc: false, // rails alone have no devices
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.is_clean(), "{:#?}", r.violations);
        assert_eq!(r.element_count, 2);
    }

    #[test]
    fn pipeline_collects_all_stages() {
        let tech = nmos_technology();
        // Narrow wire (elements), loose contact (elements),
        // butted boxes (connections), close wires (interactions).
        let r = check_cif(
            "L NM; B 2000 700 1000 350;
             L NC; B 500 500 9000 0;
             L NM; B 2000 750 1000 2000; B 2000 750 3000 2000;
             L NP; B 3000 500 20000 250; B 3000 500 20000 800;
             E",
            &tech,
            &CheckOptions {
                erc: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.by_stage(CheckStage::Elements).is_empty());
        assert!(!r.by_stage(CheckStage::Connections).is_empty());
        assert!(!r.by_stage(CheckStage::Interactions).is_empty());
    }

    #[test]
    fn erc_runs_when_enabled() {
        let tech = nmos_technology();
        // VDD and GND shorted by one metal rail.
        let r = check_cif(
            "L NM; 9N VDD; B 10000 750 5000 375;
             9L GND NM 1000 375; E",
            &tech,
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::Erc { .. })),
            "{:#?}",
            r.violations
        );
    }

    #[test]
    fn stamped_rows_equal_the_direct_scan() {
        // Eight abutting instances of one cell, each a spacing fault
        // across its neighbour: the report's interaction lines come from
        // one stamped row, and the direct scan over every element of the
        // same view finds the same lines from the same pairs.
        let tech = nmos_technology();
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; DF;\n");
        for i in 0..8 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2500));
        }
        cif.push('E');
        let layout = diic_cif::parse(&cif).unwrap();
        let options = CheckOptions {
            erc: false,
            ..Default::default()
        };
        let bound = BoundTechnology::new(&tech);
        let mut sink = DiagnosticSink::new();
        let seed = StringInterner::default();
        let (report, parts) = run_pipeline(&layout, &tech, &options, &bound, None, seed, &mut sink);
        let nets = crate::netgen::NetgenResult {
            netlist: report.netlist.clone(),
            element_net: parts.element_net,
            device_terminal_nets: parts.device_terminal_nets,
            violations: Vec::new(),
        };
        let all: Vec<usize> = (0..parts.view.elements.len()).collect();
        let (direct, direct_stats) = crate::interact::check_interactions_among(
            &parts.view,
            &tech,
            &bound,
            &nets,
            &options,
            &all,
            None,
        );
        let mut scoped = report.by_stage(CheckStage::Interactions);
        let mut direct: Vec<&Violation> = direct.iter().collect();
        let key = |v: &&Violation| format!("{v:?}");
        scoped.sort_by_key(key);
        direct.sort_by_key(key);
        assert_eq!(scoped, direct);
        assert_eq!(scoped.len(), 7);
        let stats = report.interact_stats;
        assert_eq!(stats.candidate_pairs, direct_stats.candidate_pairs);
        assert!(stats.cache_hits > 0);
        assert_eq!(direct_stats.cache_hits, 0);
    }

    #[test]
    fn scope_stats_count_a_linear_neighbour_search_and_one_row() {
        // 400 instances of one cell in a row, each far from the next:
        // every scope is repeated, one verdict row answers all of them,
        // and finding that no two are near costs a few bounding-box
        // tests per scope (testing every pair would make 79 800).
        let tech = nmos_technology();
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 2200 375; DF;\n");
        for i in 0..400 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 20_000));
        }
        cif.push('E');
        let options = CheckOptions {
            erc: false,
            ..Default::default()
        };
        let stats = check_cif(&cif, &tech, &options).unwrap().scope_stats;
        assert_eq!(stats.scopes, 401, "400 calls and the loose scope");
        assert_eq!(stats.neighbour_pairs, 0);
        assert!(stats.neighbour_tests <= 16 * stats.scopes as u64, "{stats}");
        assert_eq!(stats.elements_in_repeated_scopes, 800);
        assert_eq!((stats.conn_rows_built, stats.conn_rows_stamped), (1, 399));
        assert_eq!(stats.conn_pairs_scored, 1);
        assert_eq!(stats.conn_pairs_stamped, 399);
    }

    #[test]
    fn stage_profile_populated() {
        let tech = nmos_technology();
        let r = check_cif("L NM; B 2000 750 0 0; E", &tech, &CheckOptions::default()).unwrap();
        // The names and order the benchmark's `stage.*_ms` spans read.
        let names: Vec<&str> = r.stage_profile.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "instantiate",
                "elements",
                "primitives",
                "connections",
                "netlist",
                "interactions",
                "composition"
            ]
        );
        let total: std::time::Duration = r.stage_profile.iter().map(|s| s.duration).sum();
        assert!(total > std::time::Duration::ZERO);
    }

    #[test]
    fn zero_parallelism_clamps_consistently_with_flat_options() {
        // The cross-validation contract for the two tuning knobs.
        let check = CheckOptions {
            parallelism: 0,
            ..CheckOptions::default()
        };
        let flat = crate::flat::FlatOptions {
            parallelism: 0,
            ..crate::flat::FlatOptions::default()
        };
        assert_eq!(check.effective_parallelism(), flat.effective_parallelism());
        assert!(check.effective_parallelism() >= 1);
        assert_eq!(
            CheckOptions::default().effective_parallelism(),
            1,
            "the default stays serial"
        );
    }

    #[test]
    fn parallel_report_is_byte_identical() {
        let tech = nmos_technology();
        // Spacing violations across and inside instances.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..6 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2500));
        }
        cif.push('E');
        let serial = check_cif(
            &cif,
            &tech,
            &CheckOptions {
                erc: false,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = check_cif(
            &cif,
            &tech,
            &CheckOptions {
                erc: false,
                parallelism: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.violations, parallel.violations);
        assert_eq!(serial.interact_stats, parallel.interact_stats);
    }
}
