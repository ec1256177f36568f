//! The paper's §4.1 / §5.1 best-configuration determinations as tables
//! (DESIGN.md experiments T1/T2): peak throughput, the load at the peak,
//! and stability for every configuration of the corresponding sweep.

use crate::catalog::Campaign;
use crate::figure::Figure;
use metrics::{fnum, Align, Table};

/// One configuration's line in a best-config table.
#[derive(Debug, Clone)]
pub struct ConfigSummary {
    pub label: String,
    pub peak_rps: f64,
    pub peak_at_clients: u32,
    pub stability_cv_at_peak: f64,
    pub resets_per_s_at_peak: f64,
}

/// Which determination to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BestConfigTable {
    /// §4.1: uniprocessor sweep (T1).
    Uniprocessor,
    /// §5.1: 4-way SMP sweep (T2).
    Smp,
}

impl BestConfigTable {
    pub fn id(self) -> &'static str {
        match self {
            BestConfigTable::Uniprocessor => "table-up",
            BestConfigTable::Smp => "table-smp",
        }
    }

    fn source_figures(self) -> [&'static str; 2] {
        match self {
            BestConfigTable::Uniprocessor => ["fig1a", "fig1b"],
            BestConfigTable::Smp => ["fig7a", "fig7b"],
        }
    }

    fn title(self) -> &'static str {
        match self {
            BestConfigTable::Uniprocessor => "T1 (§4.1): best configurations on a uniprocessor",
            BestConfigTable::Smp => "T2 (§5.1): best configurations on 4-way SMP",
        }
    }
}

fn summarise(fig: &Figure) -> Vec<ConfigSummary> {
    fig.series
        .iter()
        .map(|s| {
            let (best_idx, best) = s
                .points
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.throughput_rps
                        .partial_cmp(&b.1.throughput_rps)
                        .expect("finite throughput")
                })
                .expect("non-empty series");
            ConfigSummary {
                label: s.label.clone(),
                peak_rps: best.throughput_rps,
                peak_at_clients: fig.loads[best_idx],
                stability_cv_at_peak: best.stability_cv,
                resets_per_s_at_peak: best.conn_reset_per_s,
            }
        })
        .collect()
}

/// Build one determination table from (cached) campaign sweeps. Returns the
/// summaries (winner first) and the rendered table.
pub fn best_config_table(
    campaign: &mut Campaign,
    which: BestConfigTable,
) -> (Vec<ConfigSummary>, String) {
    let mut rows: Vec<ConfigSummary> = Vec::new();
    for id in which.source_figures() {
        let fig = campaign.build(id);
        rows.extend(summarise(&fig));
    }
    rows.sort_by(|a, b| b.peak_rps.partial_cmp(&a.peak_rps).expect("finite"));
    let mut table = Table::new(&[
        ("configuration", Align::Left),
        ("peak replies/s", Align::Right),
        ("at clients", Align::Right),
        ("stability CV", Align::Right),
        ("resets/s", Align::Right),
    ]);
    for r in &rows {
        table.row(vec![
            r.label.clone(),
            fnum(r.peak_rps, 0),
            r.peak_at_clients.to_string(),
            fnum(r.stability_cv_at_peak, 3),
            fnum(r.resets_per_s_at_peak, 2),
        ]);
    }
    let rendered = format!(
        "## {} — {}\n\n{}",
        which.id(),
        which.title(),
        table.render()
    );
    (rows, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Scale;
    use desim::SimDuration;

    fn tiny_campaign() -> Campaign {
        Campaign::new(Scale {
            loads: vec![30, 90],
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(3),
            ramp: SimDuration::from_secs(1),
            seed: 5,
        })
    }

    #[test]
    fn table_up_covers_all_configs_sorted() {
        let mut c = tiny_campaign();
        let (rows, rendered) = best_config_table(&mut c, BestConfigTable::Uniprocessor);
        assert_eq!(rows.len(), 3 + 4, "3 nio + 4 httpd configurations");
        for w in rows.windows(2) {
            assert!(w[0].peak_rps >= w[1].peak_rps, "not sorted");
        }
        assert!(rendered.contains("table-up"));
        assert!(rendered.contains("nio-1w"));
        assert!(rendered.contains("httpd-6000t"));
    }

    #[test]
    fn table_smp_uses_smp_sweeps() {
        let mut c = tiny_campaign();
        let (rows, rendered) = best_config_table(&mut c, BestConfigTable::Smp);
        assert_eq!(rows.len(), 3 + 3);
        assert!(rendered.contains("table-smp"));
        assert!(rows.iter().any(|r| r.label == "nio-2w"));
        assert!(rows.iter().any(|r| r.label == "httpd-2048t"));
    }

    #[test]
    fn ids_are_stable() {
        assert_eq!(BestConfigTable::Uniprocessor.id(), "table-up");
        assert_eq!(BestConfigTable::Smp.id(), "table-smp");
    }
}
