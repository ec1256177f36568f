//! `repro observe capacity` — the capacity observatory.
//!
//! The paper's Figs 7–10 show *where each architecture's scaling curve
//! bends*: nio peaks at 2 workers on the 4-way SMP, httpd gains little
//! past its best pool. A point throughput measurement (one `benchmark/`
//! workload) cannot see that shape — a change can keep the 1-worker rate
//! intact while wrecking the 4-worker rate. This module fits Gunther's Universal
//! Scalability Law ([`obs::fit_usl`]) to throughput-vs-parallelism sweeps
//! on the paper's simulated testbed: the nio worker sweep on the 4-way SMP
//! and httpd across 1–4 CPUs, at a saturating client load. There is no live
//! sweep: a 4-point loopback sweep on two cores, with the load generator on
//! the same cores, cannot resolve the coefficients (σ pinned at its bound
//! of 1, R² 0.64), so its gate could not fail.
//!
//! Each curve yields `(λ, σ, κ)`: the single-unit rate, the contention
//! (serial-fraction) coefficient, and the coherency (crosstalk)
//! coefficient, plus the predicted knee `N* = √((1−σ)/κ)`. Those
//! coefficients are the *scalability* of the architecture in two numbers,
//! and they gate CI: `repro observe capacity --smoke` refits on a short
//! sweep and fails when σ or κ regress beyond [`SIGMA_TOLERANCE`] /
//! [`KAPPA_TOLERANCE`] against the committed `CAPACITY_baseline.json`.

use crate::checks::Check;
use crate::sweep::sweep;
use desim::SimDuration;
use metrics::json::{get, get_num, get_str};
use metrics::Json;
use netsim::LinkConfig;
use obs::{fit_usl, UslFit};
use serversim::{ServerArch, TestbedConfig};

/// Schema tag emitted in (and required of) `CAPACITY_baseline.json`.
pub const CAPACITY_SCHEMA: &str = "capacity/v1";

/// Default output / baseline path, relative to the repo root.
pub const CAPACITY_BASELINE_PATH: &str = "CAPACITY_baseline.json";

/// Absolute increase in the fitted contention coefficient σ that fails
/// the CI gate, for **sim**-layer curves. Sim sweeps are seeded and fully
/// deterministic — a smoke refit differs from the baseline only through
/// its shorter measured window — so the tolerance is tight.
pub const SIGMA_TOLERANCE: f64 = 0.15;

/// Absolute increase in the fitted coherency coefficient κ that fails
/// the CI gate, for **sim**-layer curves. κ is the curve-bending term:
/// small absolute moves shift the knee a lot, and the deterministic sim
/// fit keeps the bar this low.
pub const KAPPA_TOLERANCE: f64 = 0.05;

/// One throughput-vs-parallelism curve and its USL fit.
#[derive(Debug, Clone)]
pub struct CapacityCurve {
    /// Which layer measured it (`sim`).
    pub layer: String,
    /// Architecture label: `nio` or `httpd`.
    pub arch: String,
    /// What the x-axis scales: `workers` or `cpus`.
    pub param: String,
    /// `(N, replies/s)` points, in sweep order.
    pub points: Vec<(f64, f64)>,
    /// The fitted USL, when the sweep produced enough valid points.
    pub fit: Option<UslFit>,
}

impl CapacityCurve {
    /// Identity for baseline matching: a curve is "the same experiment"
    /// when layer, architecture and swept parameter all agree.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.layer, self.arch, self.param)
    }
}

/// Everything `repro observe capacity` measures.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// `smoke` or `paper`.
    pub scale: String,
    pub curves: Vec<CapacityCurve>,
}

// ---------------------------------------------------------------------
// Simulated-layer sweeps
// ---------------------------------------------------------------------

/// Saturating load for the sim sweeps: enough concurrent clients that the
/// SUT, not the offered load, limits throughput — otherwise every worker
/// count serves the same rate and the fit degenerates to a flat curve
/// (σ → 1, the "no speedup at all" reading). The paper's SMP sweeps only
/// separate worker counts at their top loads, so the observatory measures
/// there. Smoke runs keep the SAME load and shorten the measured window
/// instead: the (σ, κ) decomposition is load-dependent (the SSE valley
/// trades one against the other), so a cross-load comparison would gate
/// apples against oranges.
const SIM_CLIENTS: u32 = 6000;

fn sim_config(server: ServerArch, cpus: usize, smoke: bool) -> TestbedConfig {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(server, cpus, link);
    cfg.num_clients = SIM_CLIENTS;
    cfg.duration = SimDuration::from_secs(if smoke { 8 } else { 20 });
    cfg.warmup = SimDuration::from_secs(if smoke { 2 } else { 5 });
    cfg.ramp = SimDuration::from_secs(1);
    cfg.seed = 0x1CC9_2004 ^ (cpus as u64).wrapping_mul(0x9E37_79B9);
    cfg
}

fn fit_curve(layer: &str, arch: &str, param: &str, points: Vec<(f64, f64)>) -> CapacityCurve {
    let fit = fit_usl(&points);
    CapacityCurve {
        layer: layer.to_string(),
        arch: arch.to_string(),
        param: param.to_string(),
        points,
        fit,
    }
}

/// The simulated capacity curves: the paper's Fig 7 worker sweep (nio on
/// the 4-way SMP) and its Fig 9 CPU-scaling sweep (httpd's best pool
/// across 1–4 CPUs), both reduced to throughput-vs-N points.
pub fn sim_curves(smoke: bool) -> Vec<CapacityCurve> {
    let workers: Vec<usize> = vec![1, 2, 3, 4];
    let nio_cfgs: Vec<TestbedConfig> = workers
        .iter()
        .map(|&w| sim_config(ServerArch::EventDriven { workers: w }, 4, smoke))
        .collect();
    let cpus: Vec<usize> = vec![1, 2, 3, 4];
    let httpd_cfgs: Vec<TestbedConfig> = cpus
        .iter()
        .map(|&c| sim_config(ServerArch::Threaded { pool: 4096 }, c, smoke))
        .collect();

    // One parallel batch for all points of both curves.
    let mut all = nio_cfgs;
    let split = all.len();
    all.extend(httpd_cfgs);
    let results = sweep(all);

    let nio_pts: Vec<(f64, f64)> = workers
        .iter()
        .zip(&results[..split])
        .map(|(&w, r)| (w as f64, r.throughput_rps))
        .collect();
    let httpd_pts: Vec<(f64, f64)> = cpus
        .iter()
        .zip(&results[split..])
        .map(|(&c, r)| (c as f64, r.throughput_rps))
        .collect();

    vec![
        fit_curve("sim", "nio", "workers", nio_pts),
        fit_curve("sim", "httpd", "cpus", httpd_pts),
    ]
}

/// Run the full observatory: every curve.
pub fn run_capacity(smoke: bool) -> CapacityReport {
    CapacityReport {
        scale: if smoke { "smoke" } else { "paper" }.to_string(),
        curves: sim_curves(smoke),
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn fmt_knee(fit: &UslFit) -> String {
    if fit.peak_n.is_finite() {
        format!("{:.1}", fit.peak_n)
    } else {
        "∞".to_string()
    }
}

/// The fitted-coefficient table plus a "where the curve bends and why"
/// narrative per curve.
pub fn render_capacity(report: &CapacityReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>9} {:>8} {:>9} {:>7} {:>6} {:>8}\n",
        "curve", "lambda", "sigma", "kappa", "knee", "r2", "regime"
    ));
    for c in &report.curves {
        match &c.fit {
            Some(f) => out.push_str(&format!(
                "{:<22} {:>9.0} {:>8.4} {:>9.5} {:>7} {:>6.3} {:>8}\n",
                c.key(),
                f.lambda,
                f.sigma,
                f.kappa,
                fmt_knee(f),
                f.r2,
                f.regime()
            )),
            None => out.push_str(&format!("{:<22} (no fit: degenerate sweep)\n", c.key())),
        }
    }
    out.push('\n');
    for c in &report.curves {
        let Some(f) = &c.fit else { continue };
        let pts: Vec<String> = c
            .points
            .iter()
            .map(|&(n, y)| format!("{}:{:.0}", n as u64, y))
            .collect();
        out.push_str(&format!("{} — points [{}]\n", c.key(), pts.join(" ")));
        let bend = if f.peak_n.is_finite() && f.peak_n <= c.points.last().map_or(0.0, |p| p.0) {
            format!(
                "bends back at {} {} (peak {:.0} replies/s): coherency κ={:.5} dominates — \
                 adding {} past the knee costs more in crosstalk than it adds in service",
                fmt_knee(f),
                c.param,
                f.peak_throughput(),
                f.kappa,
                c.param
            )
        } else if f.sigma > 0.05 {
            format!(
                "saturates toward {:.0} replies/s: contention σ={:.4} caps the speedup at \
                 {:.1}× (serial fraction — accept path, shared queues)",
                f.peak_throughput(),
                f.sigma,
                1.0 / f.sigma.max(1e-9)
            )
        } else {
            "scales near-linearly across the swept range".to_string()
        };
        out.push_str(&format!("  {}\n", bend));
        if f.se_sigma.is_finite() {
            out.push_str(&format!(
                "  confidence: σ±{:.4} κ±{:.5} (jackknife over {} points), rmse {:.0}\n",
                f.se_sigma, f.se_kappa, f.n_points, f.rmse
            ));
        }
    }
    // The paper's headline SMP finding, restated against the fresh fit.
    if let Some(nio) = report
        .curves
        .iter()
        .find(|c| c.layer == "sim" && c.arch == "nio")
        .and_then(|c| c.fit.as_ref())
    {
        if nio.peak_n.is_finite() {
            out.push_str(&format!(
                "\npaper check: Beltran et al. find nio peaks at 2 workers on the 4-way SMP; \
                 this fit puts the knee at {:.1} workers.\n",
                nio.peak_n
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// JSON persist / parse (CAPACITY_baseline.json)
// ---------------------------------------------------------------------

/// Serialize a report. NaN standard errors (short sweeps) render as JSON
/// `null` per the [`metrics::Json`] RFC 8259 rule and parse back as NaN.
pub fn capacity_to_json(report: &CapacityReport) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(CAPACITY_SCHEMA.to_string())),
        ("scale", Json::Str(report.scale.clone())),
        (
            "curves",
            Json::Array(
                report
                    .curves
                    .iter()
                    .map(|c| {
                        let mut row = vec![
                            ("layer", Json::Str(c.layer.clone())),
                            ("arch", Json::Str(c.arch.clone())),
                            ("param", Json::Str(c.param.clone())),
                            (
                                "points",
                                Json::Array(
                                    c.points
                                        .iter()
                                        .map(|&(n, y)| {
                                            Json::Array(vec![Json::Num(n), Json::Num(y)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ];
                        if let Some(f) = &c.fit {
                            row.push((
                                "fit",
                                Json::obj(vec![
                                    ("lambda", Json::Num(f.lambda)),
                                    ("sigma", Json::Num(f.sigma)),
                                    ("kappa", Json::Num(f.kappa)),
                                    ("r2", Json::Num(f.r2)),
                                    ("rmse", Json::Num(f.rmse)),
                                    ("peak_n", Json::Num(f.peak_n)),
                                    ("se_sigma", Json::Num(f.se_sigma)),
                                    ("se_kappa", Json::Num(f.se_kappa)),
                                    ("n_points", Json::Num(f.n_points as f64)),
                                ]),
                            ));
                        }
                        Json::obj(row)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A number that may legitimately be non-finite (serialized as `null`).
fn get_num_or_nan(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Json::Num(n) => Ok(*n),
        Json::Null => Ok(f64::NAN),
        _ => Err(format!("field '{key}' must be a number or null")),
    }
}

/// Parse and schema-validate a `CAPACITY_baseline.json` document.
pub fn parse_capacity_json(text: &str) -> Result<CapacityReport, String> {
    let doc = Json::parse(text)?;
    let obj = doc.as_object().ok_or("top level must be an object")?;
    let schema = get_str(obj, "schema")?;
    if schema != CAPACITY_SCHEMA {
        return Err(format!(
            "schema mismatch: expected {CAPACITY_SCHEMA}, got {schema}"
        ));
    }
    let scale = get_str(obj, "scale")?.to_string();
    let rows = get(obj, "curves")?
        .as_array()
        .ok_or("'curves' must be an array")?;
    let mut curves = Vec::new();
    for row in rows {
        let o = row.as_object().ok_or("curve row must be an object")?;
        let mut points = Vec::new();
        for p in get(o, "points")?
            .as_array()
            .ok_or("'points' must be an array")?
        {
            let pair = p.as_array().ok_or("point must be a [n, rps] pair")?;
            match pair {
                [Json::Num(n), Json::Num(y)] => points.push((*n, *y)),
                _ => return Err("point must be a [n, rps] pair of numbers".to_string()),
            }
        }
        let fit = match get(o, "fit") {
            Err(_) => None,
            Ok(v) => {
                let f = v.as_object().ok_or("'fit' must be an object")?;
                Some(UslFit {
                    lambda: get_num(f, "lambda")?,
                    sigma: get_num(f, "sigma")?,
                    kappa: get_num(f, "kappa")?,
                    r2: get_num(f, "r2")?,
                    rmse: get_num(f, "rmse")?,
                    peak_n: get_num_or_nan(f, "peak_n")?,
                    se_sigma: get_num_or_nan(f, "se_sigma")?,
                    se_kappa: get_num_or_nan(f, "se_kappa")?,
                    n_points: get_num(f, "n_points")? as usize,
                })
            }
        };
        curves.push(CapacityCurve {
            layer: get_str(o, "layer")?.to_string(),
            arch: get_str(o, "arch")?.to_string(),
            param: get_str(o, "param")?.to_string(),
            points,
            fit,
        });
    }
    if curves.is_empty() {
        return Err("baseline has no curves".to_string());
    }
    Ok(CapacityReport { scale, curves })
}

// ---------------------------------------------------------------------
// The CI scalability gate
// ---------------------------------------------------------------------

/// Compare a fresh smoke refit against the committed baseline: every
/// baseline curve must still fit, and neither coefficient may regress
/// (grow) beyond its tolerance. Falling σ/κ — *better* scaling — passes.
/// The tolerances are fixed, not the fit's jackknife SEs: widening by the
/// *current* run's SE would let a noisy regression loosen its own gate.
pub fn capacity_checks(baseline: &CapacityReport, current: &CapacityReport) -> Vec<Check> {
    let mut checks = Vec::new();
    for base in &baseline.curves {
        let key = base.key();
        let Some(cur) = current.curves.iter().find(|c| c.key() == key) else {
            checks.push(Check::new(
                "capacity: baseline curve present in fresh run",
                false,
                format!("{key} missing from the fresh sweep"),
            ));
            continue;
        };
        let Some(bf) = &base.fit else {
            // A baseline curve without a fit gates nothing.
            continue;
        };
        let Some(cf) = &cur.fit else {
            checks.push(Check::new(
                "capacity: fresh sweep fits the USL",
                false,
                format!("{key}: fresh sweep produced no fit"),
            ));
            continue;
        };
        let (sigma_tol, kappa_tol) = (SIGMA_TOLERANCE, KAPPA_TOLERANCE);
        checks.push(Check::new(
            "capacity: contention within tolerance",
            cf.sigma <= bf.sigma + sigma_tol,
            format!(
                "{key}: sigma {:.4} vs baseline {:.4} (tolerance +{sigma_tol:.4})",
                cf.sigma, bf.sigma
            ),
        ));
        checks.push(Check::new(
            "capacity: coherency within tolerance",
            cf.kappa <= bf.kappa + kappa_tol,
            format!(
                "{key}: kappa {:.5} vs baseline {:.5} (tolerance +{kappa_tol:.5})",
                cf.kappa, bf.kappa
            ),
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::usl::usl;

    fn fake_fit(sigma: f64, kappa: f64) -> UslFit {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .map(|&n| (n, usl(1000.0, sigma, kappa, n)))
            .collect();
        fit_usl(&pts).expect("synthetic curve fits")
    }

    fn fake_report() -> CapacityReport {
        CapacityReport {
            scale: "smoke".to_string(),
            curves: vec![
                CapacityCurve {
                    layer: "sim".to_string(),
                    arch: "nio".to_string(),
                    param: "workers".to_string(),
                    points: vec![(1.0, 980.0), (2.0, 1700.0), (3.0, 2100.0), (4.0, 2200.0)],
                    fit: Some(fake_fit(0.08, 0.01)),
                },
                CapacityCurve {
                    layer: "sim".to_string(),
                    arch: "httpd".to_string(),
                    param: "cpus".to_string(),
                    points: vec![(1.0, 900.0), (2.0, 1500.0)],
                    fit: None,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips_including_nan_and_missing_fit() {
        let report = fake_report();
        let text = capacity_to_json(&report).render();
        let parsed = parse_capacity_json(&text).expect("parse own output");
        assert_eq!(parsed.scale, "smoke");
        assert_eq!(parsed.curves.len(), 2);
        let f0 = parsed.curves[0].fit.as_ref().expect("fit survives");
        let orig = report.curves[0].fit.as_ref().unwrap();
        assert!((f0.sigma - orig.sigma).abs() < 1e-12);
        assert!((f0.kappa - orig.kappa).abs() < 1e-12);
        // Four points → jackknife ran and the SEs are finite and survive.
        assert!(f0.se_sigma.is_finite());
        // The fitless curve parses back fitless.
        assert!(parsed.curves[1].fit.is_none());
        assert_eq!(parsed.curves[1].points.len(), 2);
    }

    #[test]
    fn nan_standard_errors_serialize_as_null_and_parse_as_nan() {
        let mut report = fake_report();
        let f = report.curves[0].fit.as_mut().unwrap();
        f.se_sigma = f64::NAN;
        f.se_kappa = f64::NAN;
        let text = capacity_to_json(&report).render();
        assert!(text.contains("\"se_sigma\":null"), "{text}");
        let parsed = parse_capacity_json(&text).expect("parse");
        assert!(parsed.curves[0].fit.as_ref().unwrap().se_sigma.is_nan());
    }

    #[test]
    fn schema_mismatch_and_junk_are_rejected() {
        assert!(parse_capacity_json("not json").is_err());
        assert!(parse_capacity_json("{\"schema\": \"scale/v1\"}").is_err());
        let empty = "{\"schema\": \"capacity/v1\", \"scale\": \"smoke\", \"curves\": []}";
        assert!(parse_capacity_json(empty).is_err());
    }

    #[test]
    fn committed_baseline_parses_and_passes_its_own_gate() {
        let baseline = parse_capacity_json(include_str!("../../../CAPACITY_baseline.json"))
            .expect("CAPACITY_baseline.json validates");
        assert_eq!(baseline.curves.len(), 2, "2 sim curves");
        for c in &baseline.curves {
            assert_eq!(c.points.len(), 4, "{}", c.key());
            assert!(c.fit.is_some(), "{} has no fit", c.key());
        }
        let checks = capacity_checks(&baseline, &baseline);
        assert_eq!(checks.len(), 4, "sigma and kappa per curve");
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = fake_report();
        let checks = capacity_checks(&report, &report);
        assert!(!checks.is_empty());
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn injected_sigma_regression_fails_the_gate() {
        let baseline = fake_report();
        let mut worse = baseline.clone();
        // A contention regression well past the tolerance: σ 0.08 → 0.40.
        worse.curves[0].fit = Some(fake_fit(0.40, 0.01));
        let checks = capacity_checks(&baseline, &worse);
        let failed: Vec<_> = checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failed.len(), 1, "{checks:?}");
        assert!(failed[0].name.contains("contention"), "{:?}", failed[0]);
    }

    #[test]
    fn injected_kappa_regression_fails_the_gate() {
        let baseline = fake_report();
        let mut worse = baseline.clone();
        worse.curves[0].fit = Some(fake_fit(0.08, 0.12));
        let checks = capacity_checks(&baseline, &worse);
        assert!(
            checks
                .iter()
                .any(|c| !c.pass && c.name.contains("coherency")),
            "{checks:?}"
        );
    }

    #[test]
    fn improved_coefficients_pass_the_gate() {
        let baseline = fake_report();
        let mut better = baseline.clone();
        better.curves[0].fit = Some(fake_fit(0.01, 0.001));
        assert!(capacity_checks(&baseline, &better).iter().all(|c| c.pass));
    }

    #[test]
    fn missing_curve_fails_the_gate() {
        let baseline = fake_report();
        let mut current = baseline.clone();
        current.curves.remove(0);
        let checks = capacity_checks(&baseline, &current);
        assert!(checks.iter().any(|c| !c.pass));
    }

    #[test]
    fn render_names_every_curve_and_the_paper_finding() {
        let report = fake_report();
        let out = render_capacity(&report);
        assert!(out.contains("sim/nio/workers"), "{out}");
        assert!(out.contains("sim/httpd/cpus"), "{out}");
        assert!(out.contains("no fit"), "{out}");
        assert!(out.contains("paper check"), "{out}");
    }

    #[test]
    fn smoke_capacity_run_fits_all_curves() {
        let report = run_capacity(true);
        assert_eq!(report.scale, "smoke");
        assert_eq!(report.curves.len(), 2, "2 sim curves");
        for c in &report.curves {
            assert_eq!(c.points.len(), 4, "{}: {:?}", c.key(), c.points);
            assert!(
                c.points.iter().all(|&(_, y)| y > 0.0),
                "{}: dead point in {:?}",
                c.key(),
                c.points
            );
            let fit = c
                .fit
                .as_ref()
                .unwrap_or_else(|| panic!("{} has no fit", c.key()));
            assert!(
                (0.0..=1.0).contains(&fit.sigma),
                "{}: sigma {}",
                c.key(),
                fit.sigma
            );
            assert!(fit.kappa >= 0.0);
        }
        // The gate passes against itself and the JSON roundtrips.
        assert!(capacity_checks(&report, &report).iter().all(|c| c.pass));
        let text = capacity_to_json(&report).render();
        let parsed = parse_capacity_json(&text).expect("roundtrip");
        assert_eq!(parsed.curves.len(), report.curves.len());
    }
}
