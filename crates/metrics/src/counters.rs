//! Error and event counters matching httperf's accounting.
//!
//! The paper's figure 3 plots two error families measured at the client:
//! *client timeouts* (the emulated client's 10 s socket timeout expired
//! during connect/send/receive) and *connection resets* (the server closed
//! its end — for httpd, the 15 s idle timeout — and the client noticed on
//! its next operation). We also track refusals (backlog overflow at connect
//! time), which httperf folds into "connection errors".

use std::fmt;

/// The error taxonomy observed at the load generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientError {
    /// Client-side socket timeout expired (httperf `client-timo`).
    ClientTimeout,
    /// Server closed the connection; detected as ECONNRESET at the client.
    ConnectionReset,
    /// Connect refused: listen backlog full or listener gone.
    ConnectionRefused,
    /// Any other socket-level failure.
    SocketError,
}

impl ClientError {
    /// All variants, for iteration in reports.
    pub const ALL: [ClientError; 4] = [
        ClientError::ClientTimeout,
        ClientError::ConnectionReset,
        ClientError::ConnectionRefused,
        ClientError::SocketError,
    ];

    /// Stable snake_case name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ClientError::ClientTimeout => "client_timeout",
            ClientError::ConnectionReset => "connection_reset",
            ClientError::ConnectionRefused => "connection_refused",
            ClientError::SocketError => "socket_error",
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts per error kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorCounters {
    pub client_timeout: u64,
    pub connection_reset: u64,
    pub connection_refused: u64,
    pub socket_error: u64,
}

impl ErrorCounters {
    /// Record one error of the given kind.
    pub fn record(&mut self, kind: ClientError) {
        match kind {
            ClientError::ClientTimeout => self.client_timeout += 1,
            ClientError::ConnectionReset => self.connection_reset += 1,
            ClientError::ConnectionRefused => self.connection_refused += 1,
            ClientError::SocketError => self.socket_error += 1,
        }
    }

    /// Count for one kind.
    pub fn get(&self, kind: ClientError) -> u64 {
        match kind {
            ClientError::ClientTimeout => self.client_timeout,
            ClientError::ConnectionReset => self.connection_reset,
            ClientError::ConnectionRefused => self.connection_refused,
            ClientError::SocketError => self.socket_error,
        }
    }

    /// Total errors across all kinds.
    pub fn total(&self) -> u64 {
        self.client_timeout + self.connection_reset + self.connection_refused + self.socket_error
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &ErrorCounters) {
        self.client_timeout += other.client_timeout;
        self.connection_reset += other.connection_reset;
        self.connection_refused += other.connection_refused;
        self.socket_error += other.socket_error;
    }
}

/// Request/reply accounting, mirroring httperf's summary block.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficCounters {
    /// TCP connections successfully established.
    pub connections_established: u64,
    /// HTTP requests sent.
    pub requests_sent: u64,
    /// Complete HTTP replies received.
    pub replies_received: u64,
    /// Sessions that ran every request to completion.
    pub sessions_completed: u64,
    /// Sessions aborted by an error.
    pub sessions_aborted: u64,
    /// Application bytes received (reply headers + bodies).
    pub bytes_received: u64,
    /// Application bytes sent (request lines + headers).
    pub bytes_sent: u64,
    /// Reconnect attempts made under an opt-in retry policy. Counted apart
    /// from errors: a retried refusal is one refusal *and* one retry.
    pub retries: u64,
}

impl TrafficCounters {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &TrafficCounters) {
        self.connections_established += other.connections_established;
        self.requests_sent += other.requests_sent;
        self.replies_received += other.replies_received;
        self.sessions_completed += other.sessions_completed;
        self.sessions_aborted += other.sessions_aborted;
        self.bytes_received += other.bytes_received;
        self.bytes_sent += other.bytes_sent;
        self.retries += other.retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get_roundtrip() {
        let mut c = ErrorCounters::default();
        for kind in ClientError::ALL {
            c.record(kind);
            c.record(kind);
        }
        for kind in ClientError::ALL {
            assert_eq!(c.get(kind), 2, "{kind}");
        }
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn merge_sums() {
        let mut a = ErrorCounters::default();
        a.record(ClientError::ClientTimeout);
        let mut b = ErrorCounters::default();
        b.record(ClientError::ClientTimeout);
        b.record(ClientError::ConnectionReset);
        a.merge(&b);
        assert_eq!(a.client_timeout, 2);
        assert_eq!(a.connection_reset, 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn traffic_merge_sums() {
        let mut a = TrafficCounters {
            requests_sent: 5,
            replies_received: 4,
            ..Default::default()
        };
        let b = TrafficCounters {
            requests_sent: 10,
            replies_received: 9,
            bytes_received: 1000,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requests_sent, 15);
        assert_eq!(a.replies_received, 13);
        assert_eq!(a.bytes_received, 1000);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ClientError::ClientTimeout.name(), "client_timeout");
        assert_eq!(ClientError::ConnectionReset.to_string(), "connection_reset");
    }

    #[test]
    fn every_kind_has_a_distinct_name() {
        let mut names: Vec<&str> = ClientError::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ClientError::ALL.len());
        for kind in ClientError::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn traffic_merge_covers_every_field() {
        let one = TrafficCounters {
            connections_established: 1,
            requests_sent: 1,
            replies_received: 1,
            sessions_completed: 1,
            sessions_aborted: 1,
            bytes_received: 1,
            bytes_sent: 1,
            retries: 1,
        };
        let mut sum = one;
        sum.merge(&one);
        let TrafficCounters {
            connections_established,
            requests_sent,
            replies_received,
            sessions_completed,
            sessions_aborted,
            bytes_received,
            bytes_sent,
            retries,
        } = sum;
        assert_eq!(
            [
                connections_established,
                requests_sent,
                replies_received,
                sessions_completed,
                sessions_aborted,
                bytes_received,
                bytes_sent,
                retries
            ],
            [2; 8]
        );
    }
}
