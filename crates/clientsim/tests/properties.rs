//! Property tests for the client state machine: arbitrary interleavings of
//! server-side outcomes never corrupt the client's phase or its accounting.

use clientsim::{Client, ClientAction, ClientConfig, ClientId, ClientMetrics, ClientPhase};
use desim::{Rng, SimDuration, SimTime};
use proptest::prelude::*;
use workload::{FileSet, SurgeConfig};

fn fixture(seed: u64) -> (Client, FileSet, ClientMetrics) {
    let root = Rng::new(seed);
    let mut build = Rng::new(seed ^ 1);
    let files = FileSet::build(
        &SurgeConfig {
            num_files: 50,
            ..SurgeConfig::default()
        },
        &mut build,
    );
    let c = Client::new(ClientId(0), ClientConfig::default(), &root);
    let m = ClientMetrics::new(SimDuration::from_secs(1));
    (c, files, m)
}

/// The adversary's moves at each step, chosen from whatever is legal in the
/// client's current phase.
#[derive(Debug, Clone, Copy)]
enum Adversary {
    /// Deliver the expected happy-path outcome.
    Proceed,
    /// Fire the client timeout (legal while connecting/awaiting).
    Timeout,
    /// Reset the connection (legal once established).
    Reset,
}

proptest! {
    /// Whatever the server does, the client keeps a legal phase, never has
    /// outstanding replies outside AwaitingReplies, and its error/session
    /// accounting only grows.
    #[test]
    fn client_state_machine_is_total(
        seed in 0u64..10_000,
        moves in proptest::collection::vec(0u8..3, 1..120),
    ) {
        let (mut c, files, mut m) = fixture(seed);
        let mut now = SimTime::ZERO;
        let mut pending: Option<ClientAction> = Some(c.on_start(now, &files));
        let mut connected = false;

        for &mv in &moves {
            now += SimDuration::from_millis(37);
            let adversary = match mv % 3 {
                0 => Adversary::Proceed,
                1 => Adversary::Timeout,
                _ => Adversary::Reset,
            };
            let action = pending.take();
            let next: Option<ClientAction> = match (c.phase(), adversary) {
                (ClientPhase::Connecting, Adversary::Timeout) => {
                    connected = false;
                    Some(c.on_timeout(now, &files, &mut m))
                }
                (ClientPhase::Connecting, _) => {
                    connected = true;
                    Some(c.on_connected(now, &mut m))
                }
                (ClientPhase::AwaitingReplies, Adversary::Timeout) => {
                    connected = false;
                    Some(c.on_timeout(now, &files, &mut m))
                }
                (ClientPhase::AwaitingReplies, Adversary::Reset) if connected => {
                    connected = false;
                    Some(c.on_reset(now, &files, &mut m))
                }
                (ClientPhase::AwaitingReplies, _) => {
                    c.on_reply(now, 1000, &files, &mut m)
                }
                (ClientPhase::Thinking, Adversary::Reset) if connected => {
                    connected = false;
                    Some(c.on_reset(now, &files, &mut m))
                }
                (ClientPhase::Thinking, _) => Some(c.on_think_done(now, &mut m)),
                (ClientPhase::Idle, _) => unreachable!("client started"),
            };
            // Phase/outstanding coherence after every transition.
            match c.phase() {
                ClientPhase::AwaitingReplies => {
                    prop_assert!(c.outstanding() > 0, "awaiting with nothing outstanding");
                }
                _ => prop_assert_eq!(c.outstanding(), 0, "outstanding outside awaiting"),
            }
            // Actions are only produced in compatible phases.
            if let Some(a) = &next {
                match a {
                    ClientAction::SendBurst(files_in_burst) => {
                        prop_assert_eq!(c.phase(), ClientPhase::AwaitingReplies);
                        prop_assert!(!files_in_burst.is_empty());
                    }
                    ClientAction::Think(_) => {
                        prop_assert_eq!(c.phase(), ClientPhase::Thinking)
                    }
                    ClientAction::Connect
                    | ClientAction::ConnectAfter(_)
                    | ClientAction::CloseThenConnect => {
                        prop_assert_eq!(c.phase(), ClientPhase::Connecting)
                    }
                }
            }
            // CloseThenConnect and Connect imply a fresh connection attempt.
            if matches!(
                next,
                Some(ClientAction::Connect)
                    | Some(ClientAction::CloseThenConnect)
                    | Some(ClientAction::ConnectAfter(_))
            ) {
                connected = false;
            }
            pending = next;
            let _ = action; // previous action is fully superseded
        }

        // Accounting sanity: every error was counted somewhere, totals
        // consistent with events.
        let errors = m.errors.total();
        let sessions = m.traffic.sessions_completed + m.traffic.sessions_aborted;
        prop_assert!(m.traffic.sessions_aborted >= errors.saturating_sub(sessions),
            "errors {} vs sessions {}", errors, sessions);
    }

    /// Reply accounting: replies recorded equal on_reply calls, and the
    /// response-time histogram matches.
    #[test]
    fn reply_accounting_matches(seed in 0u64..10_000, bursts in 1usize..20) {
        let (mut c, files, mut m) = fixture(seed);
        let mut now = SimTime::from_secs(1);
        c.on_start(now, &files);
        let mut action = c.on_connected(now, &mut m);
        let mut replies = 0u64;
        for _ in 0..bursts {
            match action {
                ClientAction::SendBurst(reqs) => {
                    let mut next = None;
                    for _ in 0..reqs.len() {
                        now += SimDuration::from_millis(5);
                        next = c.on_reply(now, 500, &files, &mut m);
                        replies += 1;
                    }
                    action = next.expect("burst end yields an action");
                }
                ClientAction::Think(_) => {
                    now += SimDuration::from_secs(2);
                    action = c.on_think_done(now, &mut m);
                }
                ClientAction::CloseThenConnect | ClientAction::Connect => {
                    now += SimDuration::from_millis(1);
                    action = c.on_connected(now, &mut m);
                }
                ClientAction::ConnectAfter(_) => {
                    now += SimDuration::from_secs(1);
                    action = c.on_connected(now, &mut m);
                }
            }
        }
        prop_assert_eq!(m.traffic.replies_received, replies);
        prop_assert_eq!(m.response_time_us.count(), replies);
    }
}
