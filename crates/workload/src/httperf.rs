//! The httperf command line a workload configuration corresponds to.
//!
//! For anyone with the original tool and a real testbed, this renders the
//! `httperf` invocation that our simulated/live client population emulates
//! — the reproduction's parameters in the paper's own vocabulary.

use crate::session::SessionConfig;

/// Parameters of one httperf invocation (one client machine).
#[derive(Debug, Clone)]
pub struct HttperfInvocation {
    /// SUT host as the generator would see it.
    pub server: String,
    pub port: u16,
    /// Concurrent emulated clients on this generator.
    pub clients: u32,
    /// Session shape.
    pub session: SessionConfig,
    /// Client socket timeout in seconds (the paper: 10).
    pub timeout_secs: f64,
    /// Test duration in seconds (the paper: 300).
    pub duration_secs: u64,
}

impl HttperfInvocation {
    /// Render the equivalent httperf command line.
    ///
    /// Mapping notes: `--wsess N,R,X` = N sessions, R requests per session,
    /// X seconds between session starts; our constant-population model (a
    /// new session starts the instant one ends) is approximated by issuing
    /// `clients` sessions at rate 0 and relying on `--period` for think
    /// times, which httperf draws per-burst like our bounded Pareto's mean.
    pub fn render(&self) -> String {
        let mean_think = crate::dist::BoundedPareto::new(
            self.session.think_k_secs,
            self.session.think_cap_secs,
            self.session.think_alpha,
        );
        let think = crate::dist::Distribution::mean(&mean_think).unwrap_or(1.0);
        format!(
            "httperf --hog --server {} --port {} \
             --wsess {},{:.1},{:.1} --burst-length {} --period e{:.3} \
             --timeout {:.0} --max-connections 1 --print-reply",
            self.server,
            self.port,
            self.clients,
            self.session.mean_requests,
            think,
            self.session.max_burst,
            1.0 / think.max(1e-9),
            self.timeout_secs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_papers_shape() {
        let inv = HttperfInvocation {
            server: "sut".into(),
            port: 80,
            clients: 600,
            session: SessionConfig::default(),
            timeout_secs: 10.0,
            duration_secs: 300,
        };
        let cmd = inv.render();
        assert!(cmd.starts_with("httperf --hog --server sut --port 80"));
        assert!(cmd.contains("--wsess 600,6.5,"), "{cmd}");
        assert!(cmd.contains("--timeout 10"), "{cmd}");
        assert!(cmd.contains("--burst-length 8"), "{cmd}");
    }

    #[test]
    fn think_time_feeds_the_period() {
        let mut inv = HttperfInvocation {
            server: "s".into(),
            port: 8080,
            clients: 1,
            session: SessionConfig::default(),
            timeout_secs: 10.0,
            duration_secs: 60,
        };
        inv.session.think_k_secs = 2.0;
        inv.session.think_cap_secs = 200.0;
        let a = inv.render();
        inv.session.think_k_secs = 0.5;
        inv.session.think_cap_secs = 100.0;
        let b = inv.render();
        assert_ne!(a, b, "think parameters must change the command line");
    }

    fn invocation() -> HttperfInvocation {
        HttperfInvocation {
            server: "10.0.0.1".into(),
            port: 8080,
            clients: 3,
            session: SessionConfig::default(),
            timeout_secs: 10.0,
            duration_secs: 60,
        }
    }

    #[test]
    fn period_is_the_reciprocal_of_the_mean_think_time() {
        let inv = invocation();
        let s = &inv.session;
        let think =
            crate::dist::BoundedPareto::new(s.think_k_secs, s.think_cap_secs, s.think_alpha);
        let mean = crate::dist::Distribution::mean(&think).expect("bounded mean");
        let cmd = inv.render();
        assert!(
            cmd.contains(&format!("--period e{:.3}", 1.0 / mean)),
            "{cmd}"
        );
        assert!(cmd.contains(&format!("--wsess 3,6.5,{mean:.1}")), "{cmd}");
    }

    #[test]
    fn timeout_and_burst_follow_the_config() {
        let mut inv = invocation();
        inv.timeout_secs = 2.6;
        inv.session.max_burst = 3;
        let cmd = inv.render();
        assert!(cmd.contains("--timeout 3 "), "{cmd}");
        assert!(cmd.contains("--burst-length 3 "), "{cmd}");
        assert!(cmd.starts_with("httperf --hog --server 10.0.0.1 --port 8080 "));
    }

    #[test]
    fn one_connection_per_session_and_replies_printed() {
        let cmd = invocation().render();
        assert!(cmd.contains("--max-connections 1"), "{cmd}");
        assert!(cmd.ends_with("--print-reply"), "{cmd}");
        assert!(!cmd.contains("  "), "no doubled separators: {cmd}");
    }
}
