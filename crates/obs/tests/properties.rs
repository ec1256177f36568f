//! Property tests for the observability invariants the ISSUE pins:
//!
//! * For **arbitrary** begin/mark/finish schedules, every completed request
//!   breakdown has non-negative, non-overlapping stage durations that sum
//!   exactly to the recorded response time (`end - start`).
//! * [`obs::LiveGauges`] readings never go negative, whatever interleaving
//!   of adds and (over-)subs the servers produce.
//! * [`obs::fit_usl`] recovers known `(σ, κ)` coefficients from noisy
//!   synthetic throughput curves within tolerance.
//! * [`metrics::Histogram`] merging is associative and order-independent
//!   across arbitrary shard splits, and quantiles are monotone in `q` —
//!   the properties that make per-worker histogram capture sound.

use metrics::Histogram;
use obs::usl::usl;
use obs::{fit_usl, EndReason, GaugeKind, LiveGauges, RequestTracker, Stage, StageHists};
use proptest::collection::vec;
use proptest::prelude::*;

/// Check every breakdown invariant on one completed request.
fn assert_breakdown_invariants(b: &obs::RequestBreakdown) {
    assert!(
        b.end_ns >= b.start_ns,
        "request ends before it starts: {b:?}"
    );
    // Telescoping sum: stages partition [start, end] exactly.
    assert_eq!(
        b.stage_sum_ns(),
        b.total_ns(),
        "stage durations must sum to response time: {b:?}"
    );
    // Non-overlap: stages are consecutive intervals; reconstruct the
    // boundaries and confirm they are monotone and land on end_ns.
    let mut cursor = b.start_ns;
    for &(_, d) in &b.stages {
        let next = cursor.checked_add(d).expect("no overflow");
        assert!(
            next <= b.end_ns,
            "stage interval escapes the request: {b:?}"
        );
        cursor = next;
    }
    assert_eq!(cursor, b.end_ns, "intervals must tile to the end: {b:?}");
}

proptest! {
    /// Arbitrary schedules: random interleavings of begins, marks (with
    /// arbitrary — including retrograde — timestamps), per-request
    /// finishes, and whole-connection finishes across several connections.
    #[test]
    fn arbitrary_schedules_preserve_breakdown_invariants(
        ops in vec((0u64..4, 0u64..6, 0u64..1_000_000), 1..250),
    ) {
        let mut t = RequestTracker::bounded(4096);
        for &(conn, op, time) in &ops {
            match op {
                0 => {
                    t.begin(conn, time, Stage::Parse);
                }
                1 => t.mark_next(conn, Stage::Service, time),
                2 => t.mark_next(conn, Stage::Transfer, time),
                3 => {
                    t.finish_next(conn, time, EndReason::Done);
                }
                4 => {
                    t.finish_all(conn, time, EndReason::Timeout);
                }
                _ => t.mark_next(conn, Stage::Idle, time),
            }
        }
        // Flush whatever is still open, as a connection teardown would.
        for conn in 0..4u64 {
            t.finish_all(conn, 2_000_000, EndReason::Closed);
        }
        prop_assert_eq!(t.open_len(), 0);
        for b in t.completed() {
            assert_breakdown_invariants(b);
        }
    }

    /// FIFO pipelining with in-order marks — the shape the simulator
    /// produces — additionally keeps stages in lifecycle order.
    #[test]
    fn pipelined_fifo_schedules_keep_stage_order(
        bursts in vec((1usize..5, 0u64..1000, 1u64..1000), 1..40),
    ) {
        let mut t = RequestTracker::bounded(4096);
        let mut now = 0u64;
        for &(n, gap, step) in &bursts {
            now += gap;
            for _ in 0..n {
                t.begin(1, now, Stage::Parse);
            }
            for _ in 0..n {
                now += step;
                t.mark_next(1, Stage::Service, now);
                now += step;
                t.mark_next(1, Stage::Transfer, now);
                now += step;
                t.finish_next(1, now, EndReason::Done);
            }
        }
        for b in t.completed() {
            assert_breakdown_invariants(b);
            let order: Vec<Stage> = b.stages.iter().map(|&(s, _)| s).collect();
            prop_assert_eq!(
                order,
                vec![Stage::Parse, Stage::Service, Stage::Transfer]
            );
        }
    }

    /// Gauges never go negative: random add/sub streams (subs may exceed
    /// adds) always read back >= 0 thanks to saturating decrements.
    #[test]
    fn live_gauges_never_negative(
        ops in vec((0usize..9, any::<bool>(), 0u64..100), 1..300),
    ) {
        let g = LiveGauges::new();
        for &(k, is_add, delta) in &ops {
            let kind = GaugeKind::ALL[k];
            if is_add {
                g.add(kind, delta);
            } else {
                g.sub(kind, delta);
            }
            // u64 readings are non-negative by type; the property that
            // matters is that an over-sub saturates instead of wrapping to
            // a huge "negative" value.
            prop_assert!(g.get(kind) < u64::MAX / 2, "wrapped below zero");
        }
    }

    /// The USL fitter recovers the generating coefficients from synthetic
    /// curves perturbed by bounded multiplicative noise: σ within ±0.05 and
    /// κ within ±0.01 of truth — tighter than the CI gate tolerances, so a
    /// fitted regression is a real regression, not fitter noise.
    #[test]
    fn usl_fit_recovers_known_coefficients_from_noisy_curves(
        lambda in 100.0f64..10_000.0,
        sigma in 0.0f64..0.4,
        kappa in 0.0f64..0.02,
        noise in vec(-0.02f64..0.02, 8..9),
        ) {
        let ns = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];
        let pts: Vec<(f64, f64)> = ns
            .iter()
            .zip(&noise)
            .map(|(&n, &e)| (n, usl(lambda, sigma, kappa, n) * (1.0 + e)))
            .collect();
        let fit = fit_usl(&pts).expect("8-point curve always fits");
        prop_assert!(
            (fit.sigma - sigma).abs() < 0.05,
            "sigma {} vs true {sigma}", fit.sigma
        );
        prop_assert!(
            (fit.kappa - kappa).abs() < 0.01,
            "kappa {} vs true {kappa}", fit.kappa
        );
        prop_assert!(
            (fit.lambda - lambda).abs() / lambda < 0.10,
            "lambda {} vs true {lambda}", fit.lambda
        );
        // The fit explains noisy-but-structured data well.
        prop_assert!(fit.r2 > 0.9, "r2 {}", fit.r2);
    }

    /// Histogram merge is shard-split invariant: recording a stream into
    /// one histogram and recording an arbitrary partition of the same
    /// stream into per-shard histograms (merged in arbitrary grouping and
    /// order) produce identical state — count, min/max, and every quantile.
    /// Quantiles are also monotone in `q`.
    #[test]
    fn histogram_merge_associative_and_quantile_monotone(
        values in vec((0u64..10_000_000_000, 0usize..7), 1..300),
        ) {
        let mut whole = Histogram::new(7);
        let mut shards: Vec<Histogram> = (0..7).map(|_| Histogram::new(7)).collect();
        for &(v, shard) in &values {
            whole.record(v);
            shards[shard].record(v);
        }

        // Left-fold merge: ((s0 + s1) + s2) + ...
        let mut left = Histogram::new(7);
        for s in &shards {
            left.merge(s);
        }
        // Right-fold merge over the reversed shard list: different
        // grouping AND different order.
        let mut right = Histogram::new(7);
        for s in shards.iter().rev() {
            right.merge(s);
        }

        for merged in [&left, &right] {
            prop_assert_eq!(merged.count(), whole.count());
            prop_assert_eq!(merged.min(), whole.min());
            prop_assert_eq!(merged.max(), whole.max());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                prop_assert_eq!(
                    merged.quantile(q),
                    whole.quantile(q),
                    "quantile({}) differs after shard merge", q
                );
            }
        }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            prop_assert!(
                whole.quantile(w[0]) <= whole.quantile(w[1]),
                "quantile not monotone between {} and {}", w[0], w[1]
            );
        }
    }

    /// The same split-invariance holds one level up, where the servers use
    /// it: per-worker [`StageHists`] merged in arbitrary order match one
    /// histogram set fed the whole stream, stage by stage.
    #[test]
    fn stage_hists_merge_matches_unsharded_capture(
        values in vec((0u64..1_000_000_000, 0usize..3, 0usize..4), 1..200),
        ) {
        let stages = [Stage::Parse, Stage::Service, Stage::Transfer];
        let mut whole = StageHists::new();
        let mut workers: Vec<StageHists> = (0..4).map(|_| StageHists::new()).collect();
        for &(v, stage, worker) in &values {
            whole.record(stages[stage], v);
            workers[worker].record(stages[stage], v);
        }
        let mut merged = StageHists::new();
        for w in workers.iter().rev() {
            merged.merge(w);
        }
        for (&stage, _) in stages.iter().zip(0..) {
            prop_assert_eq!(merged.stage(stage).count(), whole.stage(stage).count());
            for q in [0.5, 0.99] {
                prop_assert_eq!(
                    merged.stage(stage).quantile(q),
                    whole.stage(stage).quantile(q)
                );
            }
        }
        prop_assert_eq!(merged.total().count(), whole.total().count());
    }
}
