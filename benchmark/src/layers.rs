//! Leaf-layer numbers: direct timed calls into `diic_geom`, the CIF and
//! deck front ends, the sinks, and the wire codecs, on inputs lifted
//! from the workloads. Each function is called from the traced pass of
//! the workload whose end-to-end numbers the layer should move.

use crate::harness::{median, Metrics};
use diic_core::{ChipView, SpillFile, SpillingSink, StreamingSink, Violation};
use diic_geom::{batch, GridIndex, Rect, SizingMode};
use std::hint::black_box;
use std::time::Instant;

/// Median wall clock of `reps` calls of `f`, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&samples)
}

/// `geom.batch.*` and the build/query half of `geom.index.*`, over the
/// rect runs of an instantiated batch view. `cell` and `reach` are the
/// technology's interaction cell size and rule reach.
pub fn geom_batch(view: &ChipView, cell: i64, reach: i64, out: &mut Metrics) {
    let cols = &view.elements;
    let n = cols.len();
    assert!(n >= 2, "the batch view has elements");
    // Neighbouring elements in instantiation order: the pairs the
    // connection and interaction stages mostly see.
    let pairs = (n - 1) as f64;
    let t = median_ns(5, || {
        for i in 0..n - 1 {
            black_box(batch::closest_approach(
                cols.rects_of(i),
                cols.rects_of(i + 1),
                SizingMode::Euclidean,
            ));
        }
    });
    out.put("geom.batch.closest_approach_ns_per_pair", t / pairs, "ns");
    let t = median_ns(5, || {
        for i in 0..n - 1 {
            black_box(batch::any_touch(cols.rects_of(i), cols.rects_of(i + 1)));
        }
    });
    out.put("geom.batch.any_touch_ns_per_pair", t / pairs, "ns");

    let bboxes = cols.bboxes();
    let mut hits: Vec<u32> = Vec::new();
    let t = median_ns(5, || {
        for (k, run) in bboxes.chunks(1024).enumerate() {
            hits.clear();
            batch::touching_in_run(run, &run[0], (k * 1024) as u32, &mut hits);
            black_box(&hits);
        }
    });
    out.put("geom.batch.touching_in_run_ns_per_rect", t / n as f64, "ns");

    let mut index: GridIndex<u32> = GridIndex::new(cell);
    let t = median_ns(3, || {
        index = GridIndex::new(cell);
        for (i, b) in bboxes.iter().enumerate() {
            index.insert(*b, i as u32);
        }
    });
    out.put("geom.index.build_ns_per_rect", t / n as f64, "ns");
    let probes: Vec<Rect> = bboxes
        .iter()
        .step_by((n / 20_000).max(1))
        .filter_map(|b| b.inflate(reach))
        .collect();
    let t = median_ns(5, || {
        for p in &probes {
            black_box(index.query(p).len());
        }
    });
    out.put("geom.index.query_ns", t / probes.len() as f64, "ns");
}

/// The edit-session half of `geom.index.*`: remove + insert +
/// `touches_any` per op, the way an edit churns the session's
/// persistent index, then the compaction that churn forces.
pub fn geom_index_churn(bboxes: &[Rect], cell: i64, out: &mut Metrics) {
    let mut index: GridIndex<u32> = GridIndex::new(cell);
    let mut handles: Vec<u32> = bboxes
        .iter()
        .enumerate()
        .map(|(i, b)| index.insert(*b, i as u32))
        .collect();
    let ops = handles.len() * 4;
    let t0 = Instant::now();
    for k in 0..ops {
        let i = (k * 7919) % handles.len();
        index.remove(handles[i]);
        handles[i] = index.insert(bboxes[i], i as u32);
        black_box(index.touches_any(&bboxes[(i + 1) % bboxes.len()]));
    }
    out.put(
        "geom.index.churn_ns_per_op",
        t0.elapsed().as_secs_f64() * 1e9 / ops as f64,
        "ns",
    );
    let t0 = Instant::now();
    black_box(index.compact());
    out.put(
        "geom.index.compact_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
}

/// `cif.parse_mb_per_s` over a set of CIF texts.
pub fn cif_parse<'a>(texts: impl Iterator<Item = &'a str> + Clone, out: &mut Metrics) {
    let bytes: usize = texts.clone().map(str::len).sum();
    let t = median_ns(5, || {
        for text in texts.clone() {
            black_box(diic_cif::parse(text).expect("generated CIF always parses"));
        }
    });
    out.put("cif.parse_mb_per_s", bytes as f64 / 1e6 / (t / 1e9), "MB/s");
}

/// `deck.compile_us`: the built-in deck, source text to `Technology` —
/// what every `POST /sessions` pays.
pub fn deck_compile(out: &mut Metrics) {
    let t = median_ns(25, || {
        black_box(diic_deck::compile_str(diic_deck::NMOS_DECK).expect("built-in deck compiles"));
    });
    out.put("deck.compile_us", t / 1e3, "us");
}

/// `sink.*` and `spill.*` over one canonical report, the way
/// `GET /report` streams it: plain, and spilled at `budget` violations
/// per run under `spill_dir`.
pub fn sinks(report: &[Violation], budget: usize, spill_dir: &std::path::Path, out: &mut Metrics) {
    assert!(!report.is_empty(), "the edit chip has a non-empty report");
    let n = report.len() as f64;
    let t = median_ns(50, || {
        let mut sink = StreamingSink::new(diic_bench::FnvWriter::new(), 4096);
        for v in report {
            diic_core::Sink::push(&mut sink, v.clone());
        }
        black_box(sink.finish().expect("hashing cannot fail"));
    });
    out.put("sink.stream_ns_per_violation", t / n, "ns");

    // The report is canonical, so consecutive chunks are sorted runs.
    let (mut append, mut merge) = (Vec::new(), Vec::new());
    for _ in 0..25 {
        let mut spill = SpillFile::create_in(Some(spill_dir)).expect("spill file under out/");
        append.push(median_ns(1, || {
            for run in report.chunks(budget) {
                spill.append_run(run).expect("spill write");
            }
        }));
        merge.push(median_ns(1, || {
            spill
                .merge(&mut |v, line| {
                    black_box((v, line));
                    Ok(())
                })
                .expect("spill merge");
        }));
    }
    out.put("spill.append_ns_per_violation", median(&append) / n, "ns");
    out.put("spill.merge_ns_per_violation", median(&merge) / n, "ns");

    let mut sink = SpillingSink::new(diic_bench::FnvWriter::new(), budget)
        .with_spill_dir(spill_dir.to_path_buf());
    for v in report {
        diic_core::Sink::push(&mut sink, v.clone());
    }
    let (_, stats) = sink.finish().expect("spill under out/");
    out.put("spill.runs", stats.runs as f64, "count");
}
