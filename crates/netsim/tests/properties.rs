//! Property tests for the processor-sharing link: work conservation,
//! completion ordering, cancellation accounting, and capacity-change
//! consistency.

use desim::{SimDuration, SimTime};
use netsim::{FlowId, LinkConfig, PsLink};
use proptest::prelude::*;

const CAP: f64 = 12_500_000.0; // 100 Mbit/s in bytes/s

fn link() -> PsLink {
    PsLink::new(LinkConfig {
        capacity_bps: CAP,
        latency: SimDuration::from_micros(100),
    })
}

fn drain(l: &mut PsLink, mut now: SimTime) -> Vec<(SimTime, FlowId)> {
    let mut out = Vec::new();
    while let Some((t, _)) = l.next_completion(now) {
        now = t.max(now);
        let id = l.complete_next(now).expect("due flow must complete");
        out.push((now, id));
    }
    out
}

proptest! {
    /// Work conservation: flows all admitted at t=0 keep the link busy until
    /// the last completes at exactly total_bytes / capacity.
    #[test]
    fn makespan_is_total_work(sizes in proptest::collection::vec(1_000.0f64..5_000_000.0, 1..40)) {
        let mut l = link();
        for (i, &b) in sizes.iter().enumerate() {
            l.start_flow(SimTime::ZERO, FlowId(i as u64), b);
        }
        let done = drain(&mut l, SimTime::ZERO);
        prop_assert_eq!(done.len(), sizes.len());
        let total: f64 = sizes.iter().sum();
        let makespan = done.last().unwrap().0.as_secs_f64();
        let expect = total / CAP;
        prop_assert!((makespan - expect).abs() / expect < 1e-6,
            "makespan {makespan} vs {expect}");
        // Byte accounting matches.
        prop_assert!((l.bytes_delivered - total).abs() < 1.0);
    }

    /// Simultaneously admitted flows complete in (size, id) order — equal
    /// shares mean smallest-first.
    #[test]
    fn completion_order_is_size_order(sizes in proptest::collection::vec(1_000.0f64..1_000_000.0, 2..30)) {
        let mut l = link();
        for (i, &b) in sizes.iter().enumerate() {
            l.start_flow(SimTime::ZERO, FlowId(i as u64), b);
        }
        let done = drain(&mut l, SimTime::ZERO);
        let mut expect: Vec<usize> = (0..sizes.len()).collect();
        expect.sort_by(|&a, &b| {
            sizes[a].partial_cmp(&sizes[b]).unwrap().then(a.cmp(&b))
        });
        let got: Vec<usize> = done.iter().map(|&(_, id)| id.0 as usize).collect();
        prop_assert_eq!(got, expect);
    }

    /// Cancelling any flow mid-transfer returns remaining ≤ size, and the
    /// rest of the flows still drain completely with exact byte accounting.
    #[test]
    fn cancellation_conserves_bytes(
        sizes in proptest::collection::vec(10_000.0f64..1_000_000.0, 2..20),
        cancel_idx in 0usize..20,
        cancel_after_ms in 1u64..500,
    ) {
        let cancel_idx = cancel_idx % sizes.len();
        let mut l = link();
        for (i, &b) in sizes.iter().enumerate() {
            l.start_flow(SimTime::ZERO, FlowId(i as u64), b);
        }
        let t_cancel = SimTime::from_millis(cancel_after_ms);
        // The victim may have completed before the cancel instant; drain
        // completions due first.
        let mut now = SimTime::ZERO;
        while let Some((t, _)) = l.next_completion(now) {
            if t > t_cancel { break; }
            now = t;
            l.complete_next(now).unwrap();
        }
        let cancelled = l.cancel_flow(t_cancel, FlowId(cancel_idx as u64));
        if let Some(rem) = cancelled {
            prop_assert!(rem <= sizes[cancel_idx] + 1.0, "rem {rem} > size");
        }
        drain(&mut l, t_cancel);
        let total: f64 = sizes.iter().sum();
        let lost = cancelled.unwrap_or(0.0);
        prop_assert!((l.bytes_delivered - (total - lost)).abs() < 2.0,
            "delivered {} vs {}", l.bytes_delivered, total - lost);
    }
}
