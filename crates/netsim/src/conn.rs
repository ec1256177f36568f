//! TCP-ish connection lifecycle bookkeeping.
//!
//! The simulation doesn't model packets, but it must model the connection
//! *states* the paper's error taxonomy depends on: a connection is opened
//! (SYN), sits in the server's accept backlog, is established, carries
//! request/reply exchanges, and is eventually closed by one side — and when
//! the *server* closes first (idle timeout) while the client still believes
//! the connection is open, the client's next send observes a reset. This
//! module is pure state machine; timing lives in the testbed.

use desim::SimTime;

/// Identifier of a connection, unique per simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Which side terminated a connection, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseKind {
    /// Client finished its session and closed cleanly.
    ClientFin,
    /// Client aborted (timeout or session error).
    ClientAbort,
    /// Server closed an idle connection (its inactivity timeout).
    ServerIdleTimeout,
    /// Server refused/dropped it at accept time.
    ServerRefused,
}

/// Lifecycle states of a simulated connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// SYN sent, waiting in the server's backlog (or for a free thread).
    Connecting,
    /// Fully established and usable by both sides.
    Established,
    /// Closed; the payload says how.
    Closed(CloseKind),
}

/// A simulated connection record.
#[derive(Debug, Clone)]
pub struct Connection {
    pub id: ConnId,
    pub state: ConnState,
    /// When the client issued the SYN.
    pub opened_at: SimTime,
    /// When the server completed the accept (establishment), if it has.
    pub established_at: Option<SimTime>,
    /// When the connection was closed, if it has been.
    pub closed_at: Option<SimTime>,
    /// Replies fully delivered on this connection.
    pub replies: u32,
}

impl Connection {
    /// Create a new connection in `Connecting` state.
    pub fn open(id: ConnId, now: SimTime) -> Self {
        Connection {
            id,
            state: ConnState::Connecting,
            opened_at: now,
            established_at: None,
            closed_at: None,
            replies: 0,
        }
    }

    /// Server accepted the connection. Panics unless currently connecting —
    /// accepting an established or closed connection is a testbed bug.
    pub fn establish(&mut self, now: SimTime) {
        assert_eq!(
            self.state,
            ConnState::Connecting,
            "establish() on {:?}",
            self.state
        );
        self.state = ConnState::Established;
        self.established_at = Some(now);
    }

    /// Close from either side. Closing an already-closed connection is a
    /// no-op returning false (both sides may race to close).
    pub fn close(&mut self, now: SimTime, kind: CloseKind) -> bool {
        if matches!(self.state, ConnState::Closed(_)) {
            return false;
        }
        self.state = ConnState::Closed(kind);
        self.closed_at = Some(now);
        true
    }

    /// True when data can be sent on the connection.
    pub fn is_established(&self) -> bool {
        self.state == ConnState::Established
    }

    /// True when the *client* sending now would observe a reset: the server
    /// closed its end while the client never did.
    pub fn send_would_reset(&self) -> bool {
        matches!(self.state, ConnState::Closed(CloseKind::ServerIdleTimeout))
    }

    /// Connection-establishment latency, once established.
    pub fn connect_time(&self) -> Option<desim::SimDuration> {
        self.established_at
            .map(|t| t.saturating_since(self.opened_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    #[test]
    fn lifecycle_happy_path() {
        let mut c = Connection::open(ConnId(1), SimTime::from_millis(10));
        assert_eq!(c.state, ConnState::Connecting);
        assert!(!c.is_established());
        c.establish(SimTime::from_millis(12));
        assert!(c.is_established());
        assert_eq!(c.connect_time(), Some(SimDuration::from_millis(2)));
        assert!(c.close(SimTime::from_secs(5), CloseKind::ClientFin));
        assert_eq!(c.state, ConnState::Closed(CloseKind::ClientFin));
        assert_eq!(c.closed_at, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn double_close_is_noop() {
        let mut c = Connection::open(ConnId(1), SimTime::ZERO);
        c.establish(SimTime::ZERO);
        assert!(c.close(SimTime::from_secs(1), CloseKind::ServerIdleTimeout));
        assert!(!c.close(SimTime::from_secs(2), CloseKind::ClientAbort));
        // First close wins.
        assert_eq!(c.state, ConnState::Closed(CloseKind::ServerIdleTimeout));
    }

    #[test]
    fn reset_detection() {
        let mut c = Connection::open(ConnId(2), SimTime::ZERO);
        c.establish(SimTime::ZERO);
        assert!(!c.send_would_reset());
        c.close(SimTime::from_secs(15), CloseKind::ServerIdleTimeout);
        assert!(c.send_would_reset());

        let mut c2 = Connection::open(ConnId(3), SimTime::ZERO);
        c2.establish(SimTime::ZERO);
        c2.close(SimTime::from_secs(1), CloseKind::ClientFin);
        assert!(!c2.send_would_reset());
    }

    #[test]
    #[should_panic(expected = "establish()")]
    fn establish_twice_panics() {
        let mut c = Connection::open(ConnId(1), SimTime::ZERO);
        c.establish(SimTime::ZERO);
        c.establish(SimTime::ZERO);
    }

    #[test]
    fn refused_connection_closes_without_establishing() {
        let mut c = Connection::open(ConnId(4), SimTime::from_millis(3));
        assert!(c.close(SimTime::from_millis(4), CloseKind::ServerRefused));
        assert_eq!(c.connect_time(), None);
        assert!(!c.is_established());
        assert!(!c.send_would_reset(), "a refusal is not a reset");
        assert_eq!(c.closed_at, Some(SimTime::from_millis(4)));
    }

    #[test]
    fn client_close_first_masks_a_later_idle_timeout() {
        let mut c = Connection::open(ConnId(5), SimTime::ZERO);
        c.establish(SimTime::ZERO);
        assert!(c.close(SimTime::from_secs(1), CloseKind::ClientAbort));
        assert!(!c.close(SimTime::from_secs(15), CloseKind::ServerIdleTimeout));
        assert!(!c.send_would_reset());
        assert_eq!(c.closed_at, Some(SimTime::from_secs(1)));
    }

    #[test]
    #[should_panic(expected = "establish()")]
    fn establishing_a_closed_connection_panics() {
        let mut c = Connection::open(ConnId(6), SimTime::ZERO);
        c.close(SimTime::ZERO, CloseKind::ClientAbort);
        c.establish(SimTime::ZERO);
    }

    #[test]
    fn connect_time_none_until_established() {
        let c = Connection::open(ConnId(1), SimTime::from_secs(1));
        assert_eq!(c.connect_time(), None);
    }
}
