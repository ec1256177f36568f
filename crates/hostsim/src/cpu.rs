//! Multi-processor CPU model with per-lane concurrency caps.
//!
//! The SUT's processors are modelled as `num_cpus` identical servers
//! draining FIFO *lanes* of work items. A lane represents a group of
//! threads with its own parallelism bound: the event-driven server's worker
//! pool is a lane capped at its worker-thread count, its acceptor thread a
//! lane capped at 1, and the threaded server's pool a lane capped at its
//! (huge) thread count. A job runs when its lane is below its cap **and** a
//! processor is free; lanes are arbitrated round-robin, which approximates
//! a fair kernel scheduler at the granularity the model needs.
//!
//! The model is non-preemptive, so callers must submit work in short slices
//! (the server models slice per-request work at syscall granularity);
//! quantum-level preemption would change nothing observable at those sizes.

use desim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifier of a lane (thread group) on the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId(pub usize);

/// Token identifying a running job; returned to the caller when the job is
/// started so the completion event can carry it back. It names a slot of
/// the CPU's running-job slab plus the slot's generation, so a token whose
/// job already completed is rejected even after its slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobToken(pub u64);

impl JobToken {
    fn new(slot: usize, generation: u32) -> JobToken {
        let slot = u32::try_from(slot).expect("fewer than 2^32 running jobs");
        JobToken(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A job that started: schedule its completion at `finish` (after
/// `service` of execution) and call [`Cpu::complete`] with the token when
/// it fires.
pub type Started = (JobToken, SimTime, SimDuration);

#[derive(Debug)]
struct QueuedJob<P> {
    service: SimDuration,
    payload: P,
    enqueued_at: SimTime,
}

#[derive(Debug)]
struct RunningJob<P> {
    payload: P,
    lane: usize,
    queued_for: SimDuration,
    service: SimDuration,
}

/// A slot of the running-job slab.
#[derive(Debug)]
struct RunSlot<P> {
    generation: u32,
    job: Option<RunningJob<P>>,
}

/// A finished job with its timing, returned by [`Cpu::complete_info`]. The
/// service/queued durations let instrumentation attribute the completion
/// instant backwards (service started at `now - service`) without the
/// caller having to carry timestamps in every payload.
#[derive(Debug)]
pub struct CompletedJob<P> {
    pub payload: P,
    /// Execution time of the job (excludes queueing).
    pub service: SimDuration,
    /// Time spent queued in the lane before a processor picked it up.
    pub queued_for: SimDuration,
}

#[derive(Debug)]
struct Lane<P> {
    cap: usize,
    running: usize,
    queue: VecDeque<QueuedJob<P>>,
}

/// Aggregate CPU counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStats {
    pub jobs_completed: u64,
    /// Total service time executed (for utilisation).
    pub busy_nanos: u64,
    /// Total time jobs spent queued before starting.
    pub queued_nanos: u64,
    /// High-water mark of total queued jobs.
    pub peak_queue: usize,
}

/// The multi-processor, multi-lane CPU.
#[derive(Debug)]
pub struct Cpu<P> {
    num_cpus: usize,
    lanes: Vec<Lane<P>>,
    /// Running jobs, indexed by [`JobToken`] slot.
    running: Vec<RunSlot<P>>,
    /// Vacant slots of `running`.
    vacant: Vec<usize>,
    running_total: usize,
    rr_cursor: usize,
    stats: CpuStats,
}

impl<P> Cpu<P> {
    /// Create a CPU complex with `num_cpus` processors.
    pub fn new(num_cpus: usize) -> Self {
        assert!(num_cpus > 0);
        Cpu {
            num_cpus,
            lanes: Vec::new(),
            running: Vec::new(),
            vacant: Vec::new(),
            running_total: 0,
            rr_cursor: 0,
            stats: CpuStats::default(),
        }
    }

    /// Register a lane with a parallelism cap; returns its id.
    pub fn add_lane(&mut self, cap: usize) -> LaneId {
        assert!(cap > 0, "lane cap must be positive");
        self.lanes.push(Lane {
            cap,
            running: 0,
            queue: VecDeque::new(),
        });
        LaneId(self.lanes.len() - 1)
    }

    /// Change a lane's cap at `now` (crashed workers lost or restarted).
    /// A raised cap frees lane slots without any job completing, so this
    /// yields every queued job the new cap lets start, in start order; the
    /// caller schedules their completions. A lowered cap starts nothing
    /// and stops no running job (the model is non-preemptive).
    pub fn set_lane_cap(
        &mut self,
        now: SimTime,
        lane: LaneId,
        cap: usize,
    ) -> impl Iterator<Item = Started> + '_ {
        assert!(cap > 0);
        self.lanes[lane.0].cap = cap;
        std::iter::from_fn(move || self.try_start(now))
    }

    /// Number of processors.
    pub fn num_cpus(&self) -> usize {
        self.num_cpus
    }

    /// Jobs currently executing across all lanes.
    pub fn running_total(&self) -> usize {
        self.running_total
    }

    /// Jobs queued (not yet started) across all lanes.
    pub fn queued_total(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// Counters.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Submit a job to a lane. Returns the job that *started* as a result:
    /// the submitted one, if a processor and lane slot were free. The
    /// caller schedules its completion event.
    pub fn submit(
        &mut self,
        now: SimTime,
        lane: LaneId,
        service: SimDuration,
        payload: P,
    ) -> Option<Started> {
        self.lanes[lane.0].queue.push_back(QueuedJob {
            service,
            payload,
            enqueued_at: now,
        });
        self.stats.peak_queue = self.stats.peak_queue.max(self.queued_total());
        self.start_one(now)
    }

    /// A running job finished: free its slot, return the payload plus the
    /// job that could start in its place.
    pub fn complete(&mut self, now: SimTime, token: JobToken) -> (P, Option<Started>) {
        let (done, started) = self.complete_info(now, token);
        (done.payload, started)
    }

    /// Like [`Cpu::complete`] but also reports the finished job's service
    /// and queueing durations (for per-stage instrumentation).
    pub fn complete_info(
        &mut self,
        now: SimTime,
        token: JobToken,
    ) -> (CompletedJob<P>, Option<Started>) {
        let job = self
            .running
            .get_mut(token.slot())
            .filter(|s| s.generation == token.generation())
            .and_then(|s| s.job.take())
            .expect("completing unknown job token");
        let slot = &mut self.running[token.slot()];
        slot.generation = slot.generation.wrapping_add(1);
        self.vacant.push(token.slot());
        self.running_total -= 1;
        self.lanes[job.lane].running -= 1;
        self.stats.jobs_completed += 1;
        self.stats.queued_nanos += job.queued_for.as_nanos();
        let started = self.start_one(now);
        (
            CompletedJob {
                payload: job.payload,
                service: job.service,
                queued_for: job.queued_for,
            },
            started,
        )
    }

    /// Start the job a submit or a completion made eligible. One event
    /// frees at most one processor or lane slot, so at most one job can
    /// start; only a raised lane cap frees more, and
    /// [`Cpu::set_lane_cap`] starts those itself.
    fn start_one(&mut self, now: SimTime) -> Option<Started> {
        let started = self.try_start(now);
        debug_assert!(
            started.is_none() || self.pick_lane().is_none(),
            "a second job was eligible"
        );
        started
    }

    /// The next lane, round-robin from the cursor, with both queued work
    /// and headroom — if a processor is free.
    fn pick_lane(&self) -> Option<usize> {
        if self.running_total >= self.num_cpus {
            return None;
        }
        let nlanes = self.lanes.len();
        (0..nlanes)
            .map(|step| (self.rr_cursor + step) % nlanes)
            .find(|&idx| {
                let lane = &self.lanes[idx];
                lane.running < lane.cap && !lane.queue.is_empty()
            })
    }

    /// Start the next queued job that can run. Round-robin across lanes so
    /// one saturated lane cannot starve the others.
    fn try_start(&mut self, now: SimTime) -> Option<Started> {
        let idx = self.pick_lane()?;
        self.rr_cursor = (idx + 1) % self.lanes.len();
        let job = self.lanes[idx]
            .queue
            .pop_front()
            .expect("picked lane has work");
        self.lanes[idx].running += 1;
        self.running_total += 1;
        let finish = now + job.service;
        self.stats.busy_nanos += job.service.as_nanos();
        let running = RunningJob {
            payload: job.payload,
            lane: idx,
            queued_for: now.saturating_since(job.enqueued_at),
            service: job.service,
        };
        let slot = match self.vacant.pop() {
            Some(slot) => slot,
            None => {
                self.running.push(RunSlot {
                    generation: 0,
                    job: None,
                });
                self.running.len() - 1
            }
        };
        let entry = &mut self.running[slot];
        entry.job = Some(running);
        Some((JobToken::new(slot, entry.generation), finish, job.service))
    }

    /// Drop all queued (not yet running) jobs in a lane, returning their
    /// payloads — used when a server tears down (end of run).
    pub fn drain_lane(&mut self, lane: LaneId) -> Vec<P> {
        self.lanes[lane.0]
            .queue
            .drain(..)
            .map(|j| j.payload)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn single_cpu_serialises_jobs() {
        let mut cpu: Cpu<&str> = Cpu::new(1);
        let lane = cpu.add_lane(10);
        let s1 = cpu.submit(at(0), lane, ms(5), "a").expect("starts");
        assert_eq!(s1.1, at(5));
        let s2 = cpu.submit(at(1), lane, ms(5), "b");
        assert!(s2.is_none(), "second job must queue on 1 CPU");
        let (p, s3) = cpu.complete(at(5), s1.0);
        assert_eq!(p, "a");
        assert_eq!(s3.expect("b starts").1, at(10));
    }

    #[test]
    fn multiple_cpus_run_in_parallel() {
        let mut cpu: Cpu<u32> = Cpu::new(4);
        let lane = cpu.add_lane(100);
        let mut started = Vec::new();
        for i in 0..6 {
            started.extend(cpu.submit(at(0), lane, ms(10), i));
        }
        assert_eq!(started.len(), 4, "4 CPUs ⇒ 4 concurrent jobs");
        assert_eq!(cpu.queued_total(), 2);
    }

    #[test]
    fn lane_cap_limits_parallelism_below_cpu_count() {
        // The nio-with-1-worker case: 4 CPUs but a single worker thread.
        let mut cpu: Cpu<u32> = Cpu::new(4);
        let worker = cpu.add_lane(1);
        let started = cpu.submit(at(0), worker, ms(10), 0);
        assert!(started.is_some());
        let blocked = cpu.submit(at(0), worker, ms(10), 1);
        assert!(blocked.is_none(), "worker lane cap is 1");
        // A different lane can still use the idle processors.
        let accept = cpu.add_lane(1);
        let s = cpu.submit(at(0), accept, ms(1), 99);
        assert!(s.is_some());
    }

    #[test]
    fn round_robin_prevents_lane_starvation() {
        const MEEK: u32 = 999;
        let mut cpu: Cpu<u32> = Cpu::new(1);
        let busy = cpu.add_lane(10);
        let meek = cpu.add_lane(10);
        let first = cpu.submit(at(0), busy, ms(1), 0).expect("starts");
        for i in 1..=5 {
            assert!(cpu.submit(at(0), busy, ms(1), i).is_none());
        }
        assert!(cpu.submit(at(0), meek, ms(1), MEEK).is_none());
        // Completing the running job must start the meek lane's job next
        // (round-robin), not another busy job.
        let (_, s) = cpu.complete(at(1), first.0);
        let (p, _) = cpu.complete(at(2), s.expect("one job starts").0);
        assert_eq!(p, MEEK);
    }

    #[test]
    fn stats_track_busy_and_queueing() {
        let mut cpu: Cpu<u32> = Cpu::new(1);
        let lane = cpu.add_lane(10);
        let s1 = cpu.submit(at(0), lane, ms(10), 0).expect("starts");
        cpu.submit(at(0), lane, ms(10), 1);
        let (_, s2) = cpu.complete(at(10), s1.0);
        cpu.complete(at(20), s2.expect("job 1 starts").0);
        let st = cpu.stats();
        assert_eq!(st.jobs_completed, 2);
        assert_eq!(st.busy_nanos, ms(20).as_nanos());
        // Job 1 waited 10 ms in queue.
        assert_eq!(st.queued_nanos, ms(10).as_nanos());
        // Job 1 had already started when job 2 was queued, so the queue
        // never held more than one waiting job.
        assert_eq!(st.peak_queue, 1);
    }

    #[test]
    fn complete_info_reports_service_and_queueing() {
        let mut cpu: Cpu<u32> = Cpu::new(1);
        let lane = cpu.add_lane(10);
        let s1 = cpu.submit(at(0), lane, ms(10), 0).expect("starts");
        cpu.submit(at(2), lane, ms(7), 1);
        let (done1, s2) = cpu.complete_info(at(10), s1.0);
        assert_eq!(done1.service, ms(10));
        assert_eq!(done1.queued_for, SimDuration::ZERO);
        let (done2, _) = cpu.complete_info(at(17), s2.expect("job 1 starts").0);
        assert_eq!(done2.payload, 1);
        assert_eq!(done2.service, ms(7));
        assert_eq!(done2.queued_for, ms(8), "queued from t=2 to t=10");
    }

    #[test]
    #[should_panic(expected = "unknown job token")]
    fn completing_unknown_token_panics() {
        let mut cpu: Cpu<u32> = Cpu::new(1);
        cpu.complete(at(0), JobToken(99));
    }

    #[test]
    #[should_panic(expected = "unknown job token")]
    fn completed_token_is_stale_after_its_slot_is_reused() {
        let mut cpu: Cpu<u32> = Cpu::new(1);
        let lane = cpu.add_lane(1);
        let first = cpu.submit(at(0), lane, ms(1), 0).expect("starts");
        cpu.submit(at(0), lane, ms(1), 1);
        let (_, second) = cpu.complete(at(1), first.0);
        assert_eq!(second.expect("job 1 starts").0.slot(), first.0.slot());
        cpu.complete(at(2), first.0);
    }

    #[test]
    fn drain_lane_returns_queued_payloads() {
        let mut cpu: Cpu<u32> = Cpu::new(1);
        let lane = cpu.add_lane(10);
        cpu.submit(at(0), lane, ms(10), 1);
        cpu.submit(at(0), lane, ms(10), 2);
        cpu.submit(at(0), lane, ms(10), 3);
        let drained = cpu.drain_lane(lane);
        assert_eq!(drained, vec![2, 3], "running job is not drained");
    }

    #[test]
    fn raised_lane_cap_starts_waiters_at_once() {
        let mut cpu: Cpu<u32> = Cpu::new(4);
        let lane = cpu.add_lane(1);
        cpu.submit(at(0), lane, ms(10), 0);
        cpu.submit(at(0), lane, ms(10), 1);
        cpu.submit(at(0), lane, ms(10), 2);
        let started: Vec<_> = cpu.set_lane_cap(at(4), lane, 3).collect();
        assert_eq!(started.len(), 2, "raised cap admits both waiters");
        assert!(started.iter().all(|&(_, finish, _)| finish == at(14)));
        assert_eq!(cpu.running_total(), 3);
        assert_eq!(
            cpu.set_lane_cap(at(5), lane, 1).count(),
            0,
            "lowering starts nothing"
        );
    }
}
