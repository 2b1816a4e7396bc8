//! Shared worker-pool plumbing for every parallel path in the pipeline.
//!
//! The paper's pipeline decomposes into stages whose inner work is pure
//! per work-unit — which is why every parallel hot path in the crate
//! follows one discipline, implemented once here:
//!
//! 1. split the work into a **deterministic, ordered job list**;
//! 2. execute the jobs on a scoped thread pool (work-stealing via an
//!    atomic cursor, so unevenly sized jobs do not idle workers);
//! 3. merge the results **in job order**.
//!
//! Because each job is a pure function of its inputs and the merge is
//! positional, any worker count — including 1 — produces byte-identical
//! output. That invariant is what the differential test oracle
//! (`tests/differential.rs`) checks end to end.
//!
//! The paths that ride this pool, in pipeline order:
//!
//! * the **connection stage**'s tiled scans — one per distinct verdict
//!   row, plus the loose elements'
//!   ([`crate::connect::check_connections`] — each pair scored once,
//!   verdicts ordered by element ids at assembly);
//! * the **netgen bind phase** — chunks of the device and label lists
//!   bound to covering element ids, folded into rows serially in
//!   canonical order ([`crate::netgen::NetParts::build`]);
//! * the **interaction stage**'s row scoring and its streamed units
//!   (a scored row stamped, or a loose tile scored and decided —
//!   [`crate::interact`]).
//!
//! The one user-facing knob, [`crate::CheckOptions::parallelism`], is
//! resolved through [`effective_parallelism`]: `0` means "all available
//! cores", anything else is the literal worker count, and the result is
//! never zero. The flat baseline ([`crate::flat_check`]) runs serially.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count to the effective one.
///
/// `0` is clamped to the number of available cores (at least 1); any
/// other value is taken literally. `CheckOptions::parallelism` and the
/// library batch's worker count go through this function.
pub fn effective_parallelism(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The worker count forced by the `CHECK_PARALLELISM` environment
/// variable.
///
/// CI exports `CHECK_PARALLELISM=1` and `CHECK_PARALLELISM=$(nproc)` in
/// separate steps so the serial/parallel equivalence guarantee is
/// exercised on every push; the differential test suite picks its
/// "wide" worker count from this variable.
///
/// # Panics
///
/// Panics when the variable is set (non-empty) but not a number — a
/// silently ignored typo here would quietly un-force the CI matrix and
/// green-light a configuration that was never tested.
pub fn env_parallelism() -> Option<usize> {
    let raw = std::env::var("CHECK_PARALLELISM").ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    Some(
        trimmed
            .parse()
            .unwrap_or_else(|_| panic!("CHECK_PARALLELISM must be a worker count, got {raw:?}")),
    )
}

/// Runs `job(0)`, `job(1)`, …, `job(jobs - 1)` across `workers` scoped
/// threads and returns the results **in job order**.
///
/// Jobs are claimed from an atomic cursor (work stealing), so long and
/// short jobs mix freely; determinism comes from the positional merge,
/// not from the execution schedule. With `workers <= 1` (or fewer than
/// two jobs) the jobs run inline on the caller's thread — the parallel
/// and serial paths are the same code.
pub fn run_ordered<T, F>(jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_ordered_with_state(jobs, workers, || (), |(), i| job(i)).0
}

/// [`run_ordered`] with **per-worker mutable state**: each worker calls
/// `init` once, threads the resulting state through every job it claims,
/// and the final states are returned alongside the ordered results.
///
/// The state is a *performance* channel, not a correctness one: work
/// stealing assigns jobs to workers nondeterministically, so a job's
/// output bytes must not depend on what its worker's state accumulated —
/// the state may only carry things that are re-derivable per job (warm
/// caches, scratch buffers, session interners whose handle values never
/// reach rendered output). The library batch driver rides this to keep
/// one [`crate::binding::StringInterner`] per worker across the cells of
/// one call.
pub fn run_ordered_with_state<T, S, I, F>(
    jobs: usize,
    workers: usize,
    init: I,
    job: F,
) -> (Vec<T>, Vec<S>)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if workers <= 1 || jobs < 2 {
        let mut state = init();
        let out = (0..jobs).map(|i| job(&mut state, i)).collect();
        return (out, vec![state]);
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let mut states: Vec<S> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(jobs))
            .map(|_| {
                let (cursor, init, job) = (&cursor, &init, &job);
                s.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        done.push((i, job(&mut state, i)));
                    }
                    (done, state)
                })
            })
            .collect();
        for h in handles {
            // invariant: propagating a worker panic, not creating one —
            // join only fails if the closure itself panicked.
            let (done, state) = h.join().expect("pipeline worker panicked");
            for (i, r) in done {
                slots[i] = Some(r);
            }
            states.push(state);
        }
    });
    let out = slots
        .into_iter()
        // invariant: the shared counter hands each index to exactly
        // one worker, and every worker fills what it claims.
        .map(|r| r.expect("every job index is claimed exactly once"))
        .collect();
    (out, states)
}

/// Runs `job(0)`, …, `job(n - 1)` across the worker pool in contiguous
/// **chunks** and returns the results in index order — the fan-out
/// shape for fine-grained per-item work (e.g. the netgen element-node
/// sweep), where one [`run_ordered`] slot per item would drown the work
/// in bookkeeping. A few chunks per worker keep unevenly sized items
/// balanced; like [`run_ordered`], the positional merge makes any worker
/// count byte-identical. (Jobs that carry per-chunk state of their own —
/// the interaction stage's stat-folding chunks, the netgen bind phase's
/// id buffers — use [`run_ordered`] directly.)
pub fn run_chunked<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n < 2 {
        return (0..n).map(job).collect();
    }
    let chunk = n.div_ceil(workers * 4).max(1);
    let chunks = n.div_ceil(chunk);
    run_ordered(chunks, workers, |k| {
        let lo = k * chunk;
        ((lo..(lo + chunk).min(n)).map(&job)).collect::<Vec<T>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunked_preserves_index_order() {
        let serial: Vec<usize> = run_chunked(103, 1, |i| i * 3);
        for workers in [2usize, 3, 8] {
            assert_eq!(run_chunked(103, workers, |i| i * 3), serial, "{workers}");
        }
        assert!(run_chunked(0, 4, |i| i).is_empty());
        assert_eq!(run_chunked(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn zero_clamps_to_available_cores() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_parallelism(0), cores);
        assert!(effective_parallelism(0) >= 1);
    }

    #[test]
    fn nonzero_taken_literally() {
        assert_eq!(effective_parallelism(1), 1);
        assert_eq!(effective_parallelism(7), 7);
    }

    #[test]
    fn run_ordered_preserves_job_order() {
        let serial: Vec<usize> = run_ordered(100, 1, |i| i * i);
        for workers in [2usize, 3, 8, 64] {
            let parallel = run_ordered(100, workers, |i| i * i);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn run_ordered_uneven_jobs_stay_ordered() {
        // Job i sleeps inversely to its index, so later jobs finish
        // first — the merge must still be positional.
        let out = run_ordered(16, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i as u64) * 50));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn run_ordered_handles_empty_and_single() {
        assert!(run_ordered(0, 4, |i| i).is_empty());
        assert_eq!(run_ordered(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn run_ordered_with_state_threads_worker_state() {
        // Every worker counts the jobs it ran; the counts must cover
        // every job exactly once and the results stay positional.
        let (out, states) = run_ordered_with_state(
            50,
            4,
            || 0usize,
            |seen: &mut usize, i| {
                *seen += 1;
                i * 2
            },
        );
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<usize>(), 50);
        assert!(states.len() <= 4 && !states.is_empty());
        // Serial fallback: one state, all jobs.
        let (out, states) = run_ordered_with_state(
            3,
            1,
            || 0usize,
            |seen: &mut usize, i| {
                *seen += 1;
                i
            },
        );
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(states, vec![3]);
    }

    #[test]
    fn env_parallelism_parses() {
        // The variable is unset in normal test runs; when CI sets it,
        // the parsed value must round-trip (whitespace tolerated, but
        // garbage panics rather than silently un-forcing the matrix).
        match std::env::var("CHECK_PARALLELISM") {
            Ok(v) if v.trim().is_empty() => assert_eq!(env_parallelism(), None),
            Ok(v) => assert_eq!(env_parallelism(), Some(v.trim().parse().unwrap())),
            Err(_) => assert_eq!(env_parallelism(), None),
        }
    }
}
