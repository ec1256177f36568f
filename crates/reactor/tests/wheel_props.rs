//! Property test for `DeadlineWheel::retain`, the batch compaction that
//! bounds a lazily-cancelled wheel. A worker arms entries keyed by
//! connection, never removes them one by one, and periodically retains
//! only the keys whose connection is still open. Against a sorted model of
//! every armed entry, under any interleaving of schedule / close /
//! `pop_due` / `retain`:
//!
//! * `retain` keeps exactly the live keys' entries — none lost, none extra;
//! * `len()` is exact after every operation;
//! * pops come out in (deadline, arm order), the same order the wheel
//!   would have produced had it never been compacted.

use proptest::prelude::*;
use reactor::DeadlineWheel;

/// Beyond every level of the hierarchy at any tested resolution: such
/// entries live in the wheel's overflow list and are never due here.
const FAR: u64 = 1 << 60;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn retain_keeps_exactly_the_live_keys_entries(
        resolution in 1u64..200,
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..400),
    ) {
        let mut wheel: DeadlineWheel<u32> = DeadlineWheel::with_resolution(resolution);
        // Every armed entry as (deadline, arm order, key).
        let mut model: Vec<(u64, u64, u32)> = Vec::new();
        let mut live: Vec<u32> = (0..8).collect();
        let mut next_key = live.len() as u32;
        let mut seq = 0u64;
        let mut now = 0u64;
        for (kind, r) in ops {
            let pick = (r % live.len() as u64) as usize;
            match kind {
                // Arm a deadline for an open connection. Deadlines are never
                // behind the clock, as in a server, which arms `now + timeout`;
                // one arm in five lands in the overflow list.
                0..=4 => {
                    let far = if kind == 4 { FAR } else { 0 };
                    let at = now + far + (r >> 8) % 20_000;
                    wheel.schedule(at, live[pick]);
                    model.push((at, seq, live[pick]));
                    seq += 1;
                }
                // Close a connection: its key is dead for good (its entries
                // stay armed until popped or compacted); a fresh key opens.
                5 | 6 => {
                    live[pick] = next_key;
                    next_key += 1;
                }
                // Harvest everything due.
                7 | 8 => {
                    now += (r >> 8) % 5_000;
                    let mut popped = Vec::new();
                    while let Some(e) = wheel.pop_due(now) {
                        popped.push(e);
                    }
                    model.sort_unstable();
                    let due = model.iter().take_while(|e| e.0 <= now).count();
                    let expect: Vec<(u64, u32)> =
                        model.drain(..due).map(|(at, _, key)| (at, key)).collect();
                    prop_assert_eq!(popped, expect);
                }
                _ => {
                    wheel.retain(|k| live.contains(k));
                    model.retain(|e| live.contains(&e.2));
                }
            }
            prop_assert_eq!(wheel.len(), model.len());
        }
        // A final compaction leaves only live keys, and every near one pops
        // in order; the far ones stay armed.
        wheel.retain(|k| live.contains(k));
        model.retain(|e| live.contains(&e.2));
        prop_assert_eq!(wheel.len(), model.len());
        model.sort_unstable();
        let near = model.iter().take_while(|e| e.0 < FAR).count();
        let end = model[..near].last().map_or(now, |e| e.0.max(now));
        let mut popped = Vec::new();
        while let Some(e) = wheel.pop_due(end) {
            prop_assert!(live.contains(&e.1), "dead key {} survived retain", e.1);
            popped.push(e);
        }
        let expect: Vec<(u64, u32)> =
            model[..near].iter().map(|&(at, _, key)| (at, key)).collect();
        prop_assert_eq!(popped, expect);
        prop_assert_eq!(wheel.len(), model.len() - near);
    }
}
