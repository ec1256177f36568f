//! The quiet-decile estimator on synthetic windows: interference that only
//! slows some windows does not move it; a slowdown of the program itself
//! moves it one-for-one.

use eventscale_bench::estimate::{iqr_share, quantile, quiet_decile, Window};

/// Forty 250 ms windows of a server doing `rate` replies/s at `cpu_us` of
/// CPU and `p50_us` of latency per reply, with ±0.5% of deterministic
/// jitter; windows whose index is in `disturbed` run `slowdown` times slower.
fn windows(rate: f64, cpu_us: f64, p50_us: f64, disturbed: &[usize], slowdown: f64) -> Vec<Window> {
    (0..40)
        .map(|i| {
            let jitter = 1.0 + ((i * 37 % 11) as f64 - 5.0) / 1000.0;
            let slow = if disturbed.contains(&i) {
                slowdown
            } else {
                1.0
            };
            let replies = (rate * 0.25 * jitter / slow) as u64;
            Window {
                secs: 0.25,
                replies,
                server_cpu_ns: (replies as f64 * cpu_us * 1e3 * slow) as u64,
                driver_busy_ns: (replies as f64 * 5e3) as u64,
                p50_ns: p50_us * 1e3 * slow / jitter,
            }
        })
        .collect()
}

fn close(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance * b.abs()
}

#[test]
fn one_sided_outliers_do_not_move_the_estimate() {
    let calm = quiet_decile(&windows(40_000.0, 12.0, 30.0, &[], 1.0));
    // A noisy neighbour slows a third of the windows by 30–300%.
    for slowdown in [1.3, 2.0, 4.0] {
        let noisy = quiet_decile(&windows(
            40_000.0,
            12.0,
            30.0,
            &[1, 2, 3, 10, 11, 17, 18, 19, 25, 30, 31, 32, 38],
            slowdown,
        ));
        assert!(
            close(noisy.replies_per_s, calm.replies_per_s, 0.005),
            "{noisy:?} vs {calm:?}"
        );
        assert!(close(
            noisy.server_cpu_us_per_reply,
            calm.server_cpu_us_per_reply,
            0.005
        ));
        assert!(close(noisy.reply_p50_us, calm.reply_p50_us, 0.005));
        // What the estimate hides is reported, not lost.
        assert!(noisy.window_spread > calm.window_spread + 0.1);
    }
}

#[test]
fn a_uniform_slowdown_moves_the_estimate_one_for_one() {
    let before = quiet_decile(&windows(40_000.0, 12.0, 30.0, &[], 1.0));
    let all: Vec<usize> = (0..40).collect();
    let after = quiet_decile(&windows(40_000.0, 12.0, 30.0, &all, 1.1));
    assert!(
        close(after.replies_per_s, before.replies_per_s / 1.1, 0.002),
        "{after:?} vs {before:?}"
    );
    assert!(close(
        after.server_cpu_us_per_reply,
        before.server_cpu_us_per_reply * 1.1,
        0.002
    ));
    assert!(close(after.reply_p50_us, before.reply_p50_us * 1.1, 0.002));
}

#[test]
fn windows_without_a_reply_are_skipped() {
    let mut w = windows(1_000.0, 10.0, 500.0, &[], 1.0);
    w[3].replies = 0;
    w[3].server_cpu_ns = 0;
    let estimate = quiet_decile(&w);
    assert!(estimate.server_cpu_us_per_reply.is_finite());
    assert!(close(estimate.server_cpu_us_per_reply, 10.0, 0.01));
}

#[test]
fn quantile_interpolates_between_order_statistics() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(quantile(&v, 0.5), 2.5);
    assert!(close(quantile(&v, 0.9), 3.7, 1e-12));
}

#[test]
fn iqr_share_matches_pythons_exclusive_quartiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(iqr_share(&v), (8.25 - 2.75) / 5.5, 1e-12));
    // statistics.quantiles([10, 20, 40, 50, 90], n=4) == [15.0, 40.0, 70.0]
    assert!(close(
        iqr_share(&[50.0, 10.0, 90.0, 20.0, 40.0]),
        55.0 / 40.0,
        1e-12
    ));
}
