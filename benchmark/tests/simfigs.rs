//! The simulated points are deterministic: the same seed repeats the reply
//! count and every figure exactly; another seed does not.

use eventscale_bench::simfigs::{run, run_point, POINTS};

#[test]
fn a_point_repeats_exactly() {
    for point in [&POINTS[0], &POINTS[4]] {
        let a = run_point(point, 11, true);
        let b = run_point(point, 11, true);
        assert!(a.replies > 0);
        assert_eq!(a.replies, b.replies, "{}", point.label);
        assert_eq!(a.result, b.result, "{}", point.label);
        let other = run_point(point, 12, true);
        assert_ne!(a.result, other.result, "{}", point.label);
    }
}

#[test]
fn passes_agree_and_the_reply_count_repeats() {
    let first = run(3, 2, true, None, &mut None);
    assert!(first.differing.is_empty(), "{:?}", first.differing);
    let second = run(3, 2, true, None, &mut None);
    assert_eq!(first.replies, second.replies);
    assert_eq!(first.point_ms.len(), POINTS.len());
    assert!(first.replies_per_s > 0.0 && first.cpu_us_per_reply > 0.0 && first.setup_s > 0.0);
}
