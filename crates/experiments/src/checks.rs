//! Shape checks: does each reproduced figure tell the paper's story?
//!
//! A check never compares absolute numbers against the paper (our substrate
//! is a simulator, not a 2004 Xeon); it verifies *who wins, by roughly what
//! factor, and where crossovers fall* — the properties the paper's
//! conclusions rest on.

use crate::figure::Figure;

/// Outcome of one shape assertion.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub(crate) fn new(name: &str, pass: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            pass,
            detail,
        }
    }
}

fn last_value(fig: &Figure, label: &str) -> f64 {
    let s = fig
        .series_by_label(label)
        .unwrap_or_else(|| panic!("missing series {label} in {}", fig.id));
    fig.metric.of(s.points.last().expect("empty series"))
}

fn peak_of(fig: &Figure, label: &str) -> f64 {
    let idx = fig
        .series
        .iter()
        .position(|s| s.label == label)
        .unwrap_or_else(|| panic!("missing series {label} in {}", fig.id));
    fig.peak(idx)
}

/// Throughput rises from the lightest to the mid loads for every series
/// (the left half of every throughput figure is near-linear in the paper).
fn rises_initially(fig: &Figure) -> Check {
    let mut ok = true;
    let mut detail = String::new();
    for s in &fig.series {
        let first = fig.metric.of(&s.points[0]);
        let mid = fig.metric.of(&s.points[s.points.len() / 2]);
        if mid <= first {
            ok = false;
        }
        detail.push_str(&format!("{}: {:.0}→{:.0}  ", s.label, first, mid));
    }
    Check::new("throughput rises with load before saturating", ok, detail)
}

/// Run the shape checks appropriate for a figure id.
pub fn check_figure(fig: &Figure) -> Vec<Check> {
    let mut out = Vec::new();
    match fig.id {
        "fig1a" => {
            out.push(rises_initially(fig));
            let p1 = peak_of(fig, "nio-1w");
            let p8 = peak_of(fig, "nio-8w");
            out.push(Check::new(
                "1 worker is the best UP configuration",
                p1 >= peak_of(fig, "nio-4w") * 0.97 && p1 >= p8 * 0.97,
                format!(
                    "peaks 1w={p1:.0} 4w={:.0} 8w={p8:.0}",
                    peak_of(fig, "nio-4w")
                ),
            ));
            out.push(Check::new(
                "8 workers degrade but do not collapse",
                p8 > p1 * 0.5,
                format!("8w/1w = {:.2}", p8 / p1),
            ));
        }
        "fig1b" => {
            out.push(rises_initially(fig));
            let p896 = peak_of(fig, "httpd-896t");
            let p4096 = peak_of(fig, "httpd-4096t");
            out.push(Check::new(
                "4096 threads beat 896 (thread capacity dominates)",
                p4096 > p896 * 1.1,
                format!("peaks 4096t={p4096:.0} 896t={p896:.0}"),
            ));
            let p512 = peak_of(fig, "httpd-512t");
            out.push(Check::new(
                "small pools plateau early",
                p512 < p4096 * 0.75,
                format!("peaks 512t={p512:.0} 4096t={p4096:.0}"),
            ));
        }
        "fig2a" | "fig8a" => {
            let mut ok = true;
            let mut detail = String::new();
            for s in &fig.series {
                let first = fig.metric.of(&s.points[0]);
                let last = fig.metric.of(s.points.last().unwrap());
                if last < first {
                    ok = false;
                }
                detail.push_str(&format!("{}: {:.1}→{:.1}ms  ", s.label, first, last));
            }
            out.push(Check::new(
                "nio response time grows with workload intensity",
                ok,
                detail,
            ));
        }
        "fig2b" | "fig8b" => {
            // Thread-limited pools shed excess clients (timeouts), keeping
            // the *measured* response time of survivors low — the paper's
            // "surprisingly low" observation. Only the pool big enough to
            // reach CPU saturation must show queueing growth.
            let s = fig.series.last().expect("empty figure");
            let first = fig.metric.of(&s.points[0]);
            let last = fig.metric.of(s.points.last().unwrap());
            out.push(Check::new(
                "largest pool shows queueing growth in response time",
                last > first,
                format!("{}: {:.1}→{:.1}ms", s.label, first, last),
            ));
            let smallest = &fig.series[0];
            let small_last = fig.metric.of(smallest.points.last().unwrap());
            out.push(Check::new(
                "thread-limited pool keeps survivor response time low",
                small_last < last * 5.0 + 50.0,
                format!("{}: {:.1}ms at max load", smallest.label, small_last),
            ));
        }
        "fig3a" => {
            let nio = last_value(fig, "nio");
            let httpd = last_value(fig, "httpd");
            out.push(Check::new(
                "httpd produces far more client timeouts at high load",
                httpd > nio.max(0.01) * 2.0,
                format!("at max load: httpd {httpd:.2}/s vs nio {nio:.2}/s"),
            ));
        }
        "fig3b" => {
            let s = fig.series_by_label("nio").expect("nio series");
            let nio_total: f64 = s.points.iter().map(|r| r.conn_reset_per_s).sum();
            out.push(Check::new(
                "nio never produces connection resets",
                nio_total == 0.0,
                format!("nio resets across all loads: {nio_total}"),
            ));
            let h = fig.series_by_label("httpd").expect("httpd series");
            let early = h.points[1].conn_reset_per_s;
            let late = h.points.last().unwrap().conn_reset_per_s;
            out.push(Check::new(
                "httpd resets grow with workload intensity",
                late > early && late > 0.0,
                format!("httpd resets: {early:.2}/s → {late:.2}/s"),
            ));
        }
        "fig4" => {
            let nio_worst = {
                let s = fig.series_by_label("nio-1w").expect("nio-1w");
                s.points
                    .iter()
                    .map(|r| r.mean_connect_ms)
                    .fold(0.0, f64::max)
            };
            out.push(Check::new(
                "nio connection time stays flat and small",
                nio_worst < 100.0,
                format!("nio worst mean connect {nio_worst:.2} ms"),
            ));
            let h896 = fig.series_by_label("httpd-896t").expect("httpd-896t");
            let low = h896.points[1].mean_connect_ms;
            let high = h896.points.last().unwrap().mean_connect_ms;
            out.push(Check::new(
                "httpd-896 connection time explodes past its pool size",
                high > (low + 1.0) * 20.0,
                format!("httpd-896t connect: {low:.2} ms → {high:.1} ms"),
            ));
        }
        "fig5" => {
            let n100 = last_value(fig, "nio/100Mbit");
            let n200 = last_value(fig, "nio/2x100Mbit");
            let n1000 = last_value(fig, "nio/1Gbit");
            out.push(Check::new(
                "bandwidth steps the plateau up: 100 < 2x100 < 1Gbit",
                n100 < n200 && n200 < n1000,
                format!("nio plateaus: {n100:.0} / {n200:.0} / {n1000:.0} rps"),
            ));
            // The claim behind the plateau: the 100 Mbit link is saturated
            // (12.5 MB/s) while the 1 Gbit scenario is CPU-bound far below
            // its link capacity.
            let s100 = fig.series_by_label("nio/100Mbit").expect("nio/100Mbit");
            let bw100 = s100.points.last().unwrap().bandwidth_mb_s;
            out.push(Check::new(
                "100 Mbit link is saturated at high load",
                (10.0..13.5).contains(&bw100),
                format!("nio/100Mbit delivered {bw100:.1} MB/s of 12.5"),
            ));
            let h100 = last_value(fig, "httpd/100Mbit");
            out.push(Check::new(
                "nio advances httpd when bandwidth-bound",
                n100 >= h100,
                format!("100Mbit max load: nio {n100:.0} vs httpd {h100:.0} rps"),
            ));
            let h1000 = last_value(fig, "httpd/1Gbit");
            out.push(Check::new(
                "nio catches or passes httpd at extreme load on 1 Gbit",
                n1000 > h1000 * 0.9,
                format!("at max load: nio {n1000:.0} vs httpd {h1000:.0}"),
            ));
        }
        "fig6" => {
            // Compare at the load where the 100 Mbit link is saturated but
            // the CPU (1 Gbit scenario) is not yet: there the response time
            // is "determined by the network capacity". At the extreme load
            // both scenarios are overloaded and converge.
            let mid = fig.loads.len() / 2;
            let g100 = fig.series_by_label("nio/100Mbit").expect("nio/100Mbit");
            let g1000 = fig.series_by_label("nio/1Gbit").expect("nio/1Gbit");
            let n100 = fig.metric.of(&g100.points[mid]);
            let n1000 = fig.metric.of(&g1000.points[mid]);
            out.push(Check::new(
                "bandwidth-bound response time exceeds CPU-bound",
                n100 > n1000,
                format!(
                    "nio response at {} clients: 100Mbit {n100:.0} ms vs 1Gbit {n1000:.0} ms",
                    fig.loads[mid]
                ),
            ));
        }
        "fig7a" => {
            out.push(rises_initially(fig));
            let p2 = peak_of(fig, "nio-2w");
            let p3 = peak_of(fig, "nio-3w");
            let p4 = peak_of(fig, "nio-4w");
            out.push(Check::new(
                "2 workers are best on SMP, 3 and 4 close behind",
                p2 >= p3 * 0.97 && p2 >= p4 * 0.97 && p4 > p2 * 0.75,
                format!("peaks 2w={p2:.0} 3w={p3:.0} 4w={p4:.0}"),
            ));
        }
        "fig7b" => {
            out.push(rises_initially(fig));
            let p2048 = peak_of(fig, "httpd-2048t");
            let p4096 = peak_of(fig, "httpd-4096t");
            let p6000 = peak_of(fig, "httpd-6000t");
            out.push(Check::new(
                "big pools needed to exploit 4 CPUs",
                p4096 >= p2048,
                format!("peaks 2048t={p2048:.0} 4096t={p4096:.0}"),
            ));
            out.push(Check::new(
                "4096 and 6000 threads perform comparably (6000 is the unstable one)",
                p6000 > p4096 * 0.75 && p4096 > p6000 * 0.55,
                format!("peaks 4096t={p4096:.0} 6000t={p6000:.0}"),
            ));
        }
        "fig9a" | "fig9b" => {
            let (up_label, smp_label) = if fig.id == "fig9a" {
                ("nio/UP", "nio/SMP")
            } else {
                ("httpd/UP", "httpd/SMP")
            };
            let up = peak_of(fig, up_label);
            let smp = peak_of(fig, smp_label);
            let ratio = smp / up;
            out.push(Check::new(
                "SMP roughly doubles the stabilised throughput",
                (1.5..=2.9).contains(&ratio),
                format!("{smp_label}/{up_label} = {smp:.0}/{up:.0} = {ratio:.2}"),
            ));
        }
        "fig10a" | "fig10b" => {
            let (up_label, smp_label) = if fig.id == "fig10a" {
                ("nio/UP", "nio/SMP")
            } else {
                ("httpd/UP", "httpd/SMP")
            };
            let up = last_value(fig, up_label);
            let smp = last_value(fig, smp_label);
            out.push(Check::new(
                "SMP lowers response time at high load",
                smp < up,
                format!("at max load: SMP {smp:.1} ms vs UP {up:.1} ms"),
            ));
        }
        "ext_staged" => {
            let nio = peak_of(fig, "nio-2w");
            let seda = peak_of(fig, "seda-1p3s");
            out.push(Check::new(
                "staged pipeline outscales the flat selector server on SMP",
                seda > nio * 1.05,
                format!("peaks seda={seda:.0} nio-2w={nio:.0}"),
            ));
        }
        "ext_bandwidth" => {
            let b100 = last_value(fig, "nio/100Mbit");
            let b200 = last_value(fig, "nio/2x100Mbit");
            out.push(Check::new(
                "delivered bandwidth plateaus at each link's capacity",
                (10.0..13.5).contains(&b100) && (20.0..27.0).contains(&b200),
                format!("100Mbit: {b100:.1} MB/s, 2x100: {b200:.1} MB/s"),
            ));
        }
        "ext_stability" => {
            let s4096 = last_value(fig, "httpd-4096t");
            let s6000 = last_value(fig, "httpd-6000t");
            out.push(Check::new(
                "6000 threads trade throughput variance for their edge",
                s6000 > s4096 * 1.5,
                format!("CV at max load: 6000t {s6000:.3} vs 4096t {s4096:.3}"),
            ));
        }
        _ => {}
    }
    out
}

/// Render checks as a pass/fail report block.
pub fn render_checks(checks: &[Check]) -> String {
    let mut out = String::new();
    for c in checks {
        out.push_str(&format!(
            "  [{}] {} — {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure::{Metric, Series};
    use metrics::ErrorCounters;
    use serversim::RunResult;

    fn rr(clients: u32, thr: f64, resets: f64) -> RunResult {
        RunResult {
            label: "x".into(),
            clients,
            throughput_rps: thr,
            mean_response_ms: 1.0,
            p90_response_ms: 2.0,
            mean_connect_ms: 0.2,
            p90_connect_ms: 0.4,
            client_timeout_per_s: 0.0,
            conn_reset_per_s: resets,
            bandwidth_mb_s: 1.0,
            stability_cv: 0.1,
            errors: ErrorCounters::default(),
            sessions_completed: 10,
            sessions_aborted: 0,
            cpu_utilisation: 0.5,
            stale_events: 0,
        }
    }

    #[test]
    fn fig3b_checks_pass_on_paper_shape() {
        let fig = Figure {
            id: "fig3b",
            title: "resets".into(),
            metric: Metric::ResetsPerS,
            loads: vec![60, 600, 6000],
            series: vec![
                Series {
                    label: "nio".into(),
                    points: vec![rr(60, 0.0, 0.0), rr(600, 0.0, 0.0), rr(6000, 0.0, 0.0)],
                },
                Series {
                    label: "httpd".into(),
                    points: vec![rr(60, 0.0, 0.1), rr(600, 0.0, 1.0), rr(6000, 0.0, 9.0)],
                },
            ],
        };
        let checks = check_figure(&fig);
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.pass), "{}", render_checks(&checks));
    }

    #[test]
    fn fig3b_checks_fail_when_nio_resets() {
        let fig = Figure {
            id: "fig3b",
            title: "resets".into(),
            metric: Metric::ResetsPerS,
            loads: vec![60, 600, 6000],
            series: vec![
                Series {
                    label: "nio".into(),
                    points: vec![rr(60, 0.0, 0.5), rr(600, 0.0, 0.5), rr(6000, 0.0, 0.5)],
                },
                Series {
                    label: "httpd".into(),
                    points: vec![rr(60, 0.0, 0.1), rr(600, 0.0, 1.0), rr(6000, 0.0, 9.0)],
                },
            ],
        };
        let checks = check_figure(&fig);
        assert!(!checks[0].pass);
    }

    #[test]
    fn render_marks_pass_and_fail() {
        let checks = vec![
            Check::new("a", true, "ok".into()),
            Check::new("b", false, "bad".into()),
        ];
        let s = render_checks(&checks);
        assert!(s.contains("[PASS] a"));
        assert!(s.contains("[FAIL] b"));
    }

    #[test]
    fn unknown_figure_yields_no_checks() {
        let fig = Figure {
            id: "figX",
            title: "".into(),
            metric: Metric::ThroughputRps,
            loads: vec![],
            series: vec![],
        };
        assert!(check_figure(&fig).is_empty());
    }
}
