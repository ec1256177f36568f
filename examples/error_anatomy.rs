//! Error anatomy: reproduce figure 3's error taxonomy and show *why* each
//! error family exists, by sweeping the threaded server's idle timeout.
//!
//! The paper's figure 3(b) shows connection resets growing linearly with
//! client count for Apache and staying at zero for nio. The mechanism is
//! the idle timeout: Pareto think times have a tail, and every think longer
//! than the timeout costs one reset. This example sweeps that timeout and
//! compares the measured reset rate with the closed-form prediction
//! `clients × think_rate × P(think > timeout)` from the workload model.
//!
//! Run with: `cargo run --release --example error_anatomy`

use eventscale::prelude::*;
use metrics::{fnum, Align, Table};

fn main() {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let clients = 800;
    let session = SessionConfig::default();

    let mut table = Table::new(&[
        ("idle timeout", Align::Left),
        ("resets/s measured", Align::Right),
        ("resets/s predicted", Align::Right),
        ("timeouts/s", Align::Right),
        ("replies/s", Align::Right),
    ]);

    for timeout_s in [5u64, 15, 60] {
        let mut cfg = TestbedConfig::paper_default(ServerArch::Threaded { pool: 2048 }, 1, link);
        cfg.num_clients = clients;
        cfg.duration = SimDuration::from_secs(40);
        cfg.warmup = SimDuration::from_secs(10);
        cfg.server_idle_timeout = Some(SimDuration::from_secs(timeout_s));
        let r = run_experiment(cfg);

        // Closed-form prediction from the workload model: every think gap
        // that outlasts the timeout produces one reset. A session of mean
        // B bursts has B−1 gaps over its mean duration.
        let p_exceed = session.think_exceeds_prob(timeout_s as f64);
        // Estimate think gaps per client-second from the measured reply
        // rate: gaps ≈ replies × (bursts−1)/requests ≈ replies × 0.43.
        let gaps_per_s = r.throughput_rps * 0.43;
        let predicted = gaps_per_s * p_exceed;

        table.row(vec![
            format!("{timeout_s} s"),
            fnum(r.conn_reset_per_s, 2),
            fnum(predicted, 2),
            fnum(r.client_timeout_per_s, 2),
            fnum(r.throughput_rps, 0),
        ]);
    }

    // And the event-driven server: no timeout to sweep — it has none.
    let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, link);
    cfg.num_clients = clients;
    cfg.duration = SimDuration::from_secs(40);
    cfg.warmup = SimDuration::from_secs(10);
    let r = run_experiment(cfg);
    table.row(vec![
        "event-driven (none)".to_string(),
        fnum(r.conn_reset_per_s, 2),
        "0.00".to_string(),
        fnum(r.client_timeout_per_s, 2),
        fnum(r.throughput_rps, 0),
    ]);

    println!(
        "{clients} clients, threaded server, idle-timeout sweep \
         (P(think > t): 5s={:.3}, 15s={:.3}, 60s={:.3}):\n",
        session.think_exceeds_prob(5.0),
        session.think_exceeds_prob(15.0),
        session.think_exceeds_prob(60.0),
    );
    println!("{}", table.render());
    println!(
        "Shorter idle timeouts reclaim threads faster but reset more\n\
         thinking clients; the event-driven server simply opts out of the\n\
         trade-off — its row is structurally zero."
    );
}
