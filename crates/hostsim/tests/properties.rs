//! Property tests for the CPU model: lane caps and processor counts are
//! never exceeded, every submitted job eventually completes exactly once,
//! and busy-time accounting matches the submitted work.

use desim::{SimDuration, SimTime};
use hostsim::{Cpu, JobToken};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Replay a random job mix through the CPU, driving completions in
/// finish-time order like the engine would, checking invariants throughout.
fn drive(num_cpus: usize, lane_caps: &[usize], jobs: &[(usize, u64)]) -> (u64, u64) {
    let mut cpu: Cpu<u64> = Cpu::new(num_cpus);
    let lanes: Vec<_> = lane_caps.iter().map(|&c| cpu.add_lane(c)).collect();
    // finish-time → tokens due (BTreeMap gives deterministic order).
    let mut due: BTreeMap<(u64, u64), JobToken> = BTreeMap::new();
    let mut now = SimTime::ZERO;
    let mut completed = 0u64;
    let mut submitted_work = 0u64;

    let check = |cpu: &Cpu<u64>| {
        assert!(cpu.running_total() <= num_cpus, "CPU oversubscribed");
    };

    for (i, &(lane_idx, service_us)) in jobs.iter().enumerate() {
        let lane = lanes[lane_idx % lanes.len()];
        let service = SimDuration::from_micros(service_us % 500 + 1);
        submitted_work += service.as_nanos();
        let started = cpu.submit(now, lane, service, i as u64);
        check(&cpu);
        if let Some((tok, finish, _)) = started {
            due.insert((finish.as_nanos(), tok.0), tok);
        }
        // Every other submission, advance time and retire one due job.
        if i % 2 == 1 {
            if let Some((&key, _)) = due.iter().next() {
                let (finish_ns, _) = key;
                let tok = due.remove(&key).unwrap();
                now = SimTime::from_nanos(finish_ns.max(now.as_nanos()));
                let (_payload, started) = cpu.complete(now, tok);
                completed += 1;
                check(&cpu);
                if let Some((t2, f2, _)) = started {
                    due.insert((f2.as_nanos(), t2.0), t2);
                }
            }
        }
    }
    // Drain everything.
    while let Some((&key, _)) = due.iter().next() {
        let tok = due.remove(&key).unwrap();
        now = SimTime::from_nanos(key.0.max(now.as_nanos()));
        let (_p, started) = cpu.complete(now, tok);
        completed += 1;
        check(&cpu);
        if let Some((t2, f2, _)) = started {
            due.insert((f2.as_nanos(), t2.0), t2);
        }
    }
    assert_eq!(cpu.running_total(), 0);
    assert_eq!(cpu.queued_total(), 0, "jobs stranded in queues");
    assert_eq!(cpu.stats().busy_nanos, submitted_work);
    (completed, cpu.stats().jobs_completed)
}

proptest! {
    /// Every job completes exactly once regardless of CPU count, lane
    /// layout, or submission pattern, and no capacity bound is violated.
    #[test]
    fn all_jobs_complete_exactly_once(
        num_cpus in 1usize..8,
        lane_caps in proptest::collection::vec(1usize..6, 1..4),
        jobs in proptest::collection::vec((0usize..4, 0u64..500), 1..200),
    ) {
        let (completed, counted) = drive(num_cpus, &lane_caps, &jobs);
        prop_assert_eq!(completed, jobs.len() as u64);
        prop_assert_eq!(counted, jobs.len() as u64);
    }

    /// A lane with cap 1 serialises its jobs: with a single-lane single-cap
    /// layout, total makespan equals the sum of service times.
    #[test]
    fn cap_one_lane_serialises(services in proptest::collection::vec(1u64..300, 1..50)) {
        let mut cpu: Cpu<u64> = Cpu::new(8);
        let lane = cpu.add_lane(1);
        let mut due: Vec<(SimTime, JobToken)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, &us) in services.iter().enumerate() {
            if let Some((tok, fin, _)) = cpu.submit(now, lane, SimDuration::from_micros(us), i as u64) {
                due.push((fin, tok));
            }
        }
        let mut last = SimTime::ZERO;
        while let Some((fin, tok)) = due.pop() {
            now = fin.max(now);
            last = now;
            let (_, started) = cpu.complete(now, tok);
            if let Some((t, f, _)) = started {
                due.push((f, t));
            }
        }
        let total: u64 = services.iter().sum();
        prop_assert_eq!(last.as_nanos(), total * 1_000);
    }
}
