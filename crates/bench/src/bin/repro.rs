//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!   repro all                 # every figure, paper scale
//!   repro fig1a fig3b         # selected figures
//!   repro all --quick         # reduced scale (seconds, for CI)
//!   repro all --json out.json # also dump machine-readable results
//!   repro all --csv out.csv   # ... or a flat CSV
//!   repro observe fig2b       # re-run one point with full observability
//!                             # and explain why the curve bends there
//!                             # (--json dumps the capture as JSONL)
//!   repro observe capacity    # USL (λ, σ, κ) fits over simulated
//!                             # worker/CPU sweeps; writes
//!                             # CAPACITY_baseline.json
//!   repro observe capacity --smoke
//!                             # short refit: fail when fitted σ or κ
//!                             # regress beyond tolerance vs the baseline
//!   repro scale               # connection-count frontier: ramp live
//!                             # keep-alive conns to the fd ceiling and a
//!                             # million simulated conns into the slab;
//!                             # writes SCALE_baseline.json
//!   repro scale --smoke       # CI-sized ramp: gate memory-per-connection
//!                             # and frontier survival vs that baseline
//!   repro resilience          # adversarial clients (slow-loris, byte-drip,
//!                             # never-reads, idle floods, fd storms) vs
//!                             # both live servers + the Fig-3 idle-timeout
//!                             # policy sweep (--smoke: CI-sized windows)
//!   repro conformance         # model-based protocol conformance: generated
//!                             # client sequences diffed across the virtual-
//!                             # time oracle, handoff-nio, sharded-nio, and
//!                             # poolserver; replays tests/corpus/, checks
//!                             # transition coverage, and proves the harness
//!                             # has teeth via seeded mutations
//!   repro conformance --smoke # CI-sized sweep, same gates
//!   repro list                # print the catalog and exit
//!
//! An id that names no figure, table or `sensitivity` is rejected with the
//! usage line (exit 2) before anything runs; a repeated id runs once.
//!
//! Output per figure: the data table (one row per client count, one column
//! per series) followed by the paper-shape checks.

use experiments::catalog::EXTENSION_IDS;
use experiments::{best_config_table, render_sensitivity, run_sensitivity, BestConfigTable};
use experiments::{check_figure, render_checks, Campaign, Scale, ALL_FIGURE_IDS};
use metrics::Json;
use std::io::Write as _;

const USAGE: &str = "usage: repro [observe] [all | ext | everything | list | scale | \
    resilience | conformance | fig1a ...] [--quick] [--smoke] [--sharded] [--json PATH] \
    [--csv PATH]";

/// Ids the figure loop runs besides the catalog's figures and extensions.
const EXTRA_IDS: [&str; 3] = ["sensitivity", "table-up", "table-smp"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut quick = false;
    let mut observe_mode = false;
    let mut scale_mode = false;
    let mut resilience_mode = false;
    let mut conformance_mode = false;
    let mut smoke = false;
    // Accept path for event-driven sweeps: --sharded wins, else the
    // REPRO_ACCEPT_MODE env var (the CI matrix axis), else handoff.
    let mut accept_mode = faults::AcceptMode::from_env();
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--sharded" => accept_mode = faults::AcceptMode::Sharded,
            "observe" => observe_mode = true,
            "scale" => scale_mode = true,
            "resilience" => resilience_mode = true,
            "conformance" => conformance_mode = true,
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| {
                            eprintln!("--json requires a path");
                            std::process::exit(2);
                        })
                        .clone(),
                );
            }
            "--csv" => {
                i += 1;
                csv_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| {
                            eprintln!("--csv requires a path");
                            std::process::exit(2);
                        })
                        .clone(),
                );
            }
            "list" => {
                println!("paper figures:    {}", ALL_FIGURE_IDS.join(" "));
                println!("tables:           table-up table-smp");
                println!("robustness:       sensitivity resilience conformance");
                println!("performance:      scale");
                println!("observability:    observe <fig-id> | observe capacity");
                println!("extensions:       {}", EXTENSION_IDS.join(" "));
                std::process::exit(0);
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            "all" => ids.extend(ALL_FIGURE_IDS.iter().map(|s| s.to_string())),
            "ext" => ids.extend(EXTENSION_IDS.iter().map(|s| s.to_string())),
            "everything" => {
                ids.extend(ALL_FIGURE_IDS.iter().map(|s| s.to_string()));
                ids.extend(EXTENSION_IDS.iter().map(|s| s.to_string()));
                ids.push("table-up".to_string());
                ids.push("table-smp".to_string());
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    // Observe mode resolves its own ids (figures plus `capacity`); every
    // other id must name something the figure loop below can run.
    let runnable = |id: &str| {
        ALL_FIGURE_IDS.contains(&id) || EXTENSION_IDS.contains(&id) || EXTRA_IDS.contains(&id)
    };
    if let Some(bad) = ids.iter().find(|id| !observe_mode && !runnable(id)) {
        eprintln!("unknown id '{bad}' (see `repro list`)");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    // Keep the first occurrence of each id: `all fig1a` renders fig1a once.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    if scale_mode {
        let start = std::time::Instant::now();
        let report = experiments::run_scale(smoke);
        println!("{}", experiments::render_scale(&report));
        let doc = experiments::scale_to_json(&report).render();
        let path = json_path.unwrap_or_else(|| experiments::SCALE_BASELINE_PATH.to_string());
        if smoke {
            // CI gate: the committed baseline must parse, and the fresh
            // smoke ramp must hold its memory-per-connection and survive
            // its (smoke-sized) frontier.
            let baseline_text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            });
            let baseline = experiments::parse_scale_json(&baseline_text).unwrap_or_else(|e| {
                eprintln!("baseline {path} failed schema validation: {e}");
                std::process::exit(1);
            });
            let checks = experiments::scale_checks(&baseline, &report);
            println!("{}", render_checks(&checks));
            println!("  ({:.1}s)\n", start.elapsed().as_secs_f64());
            let failed = checks.iter().filter(|c| !c.pass).count();
            if failed > 0 {
                eprintln!("{failed} scale check(s) FAILED");
                std::process::exit(1);
            }
        } else {
            std::fs::write(&path, &doc).expect("write scale json");
            println!("wrote {path}");
            println!("  ({:.1}s)\n", start.elapsed().as_secs_f64());
        }
        return;
    }
    if conformance_mode {
        let start = std::time::Instant::now();
        let report = experiments::run_conformance(smoke);
        println!("{}", experiments::render_conformance(&report));
        let checks = experiments::conformance_checks(&report);
        println!("{}", render_checks(&checks));
        let failed = checks.iter().filter(|c| !c.pass).count();
        println!(
            "  ({} sequences, {:.1}s)\n",
            report.sequences,
            start.elapsed().as_secs_f64()
        );
        if failed > 0 {
            eprintln!("{failed} conformance check(s) FAILED");
            std::process::exit(1);
        }
        return;
    }
    if resilience_mode {
        let start = std::time::Instant::now();
        let report = experiments::run_resilience(smoke);
        println!("{}", experiments::render_resilience(&report));
        println!("{}", render_checks(&report.checks));
        let failed = report.checks.iter().filter(|c| !c.pass).count();
        println!(
            "  ({} attack runs + {} sweep rows, {:.1}s)\n",
            report.runs.len(),
            report.sweep.len(),
            start.elapsed().as_secs_f64()
        );
        if failed > 0 {
            eprintln!("{failed} resilience check(s) FAILED");
            std::process::exit(1);
        }
        return;
    }
    if ids.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    if observe_mode && ids.iter().any(|id| id == "capacity") {
        // The capacity observatory: USL fits over simulated
        // throughput-vs-parallelism sweeps. `--smoke` refits on a short
        // sweep and gates σ/κ against the committed baseline; a full run
        // rewrites it.
        let start = std::time::Instant::now();
        let report = experiments::run_capacity(smoke);
        println!("{}", experiments::render_capacity(&report));
        let doc = experiments::capacity_to_json(&report).render();
        let path = json_path.unwrap_or_else(|| experiments::CAPACITY_BASELINE_PATH.to_string());
        if smoke {
            let baseline_text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            });
            let baseline = experiments::parse_capacity_json(&baseline_text).unwrap_or_else(|e| {
                eprintln!("baseline {path} failed schema validation: {e}");
                std::process::exit(1);
            });
            let checks = experiments::capacity_checks(&baseline, &report);
            println!("{}", render_checks(&checks));
            println!("  ({:.1}s)\n", start.elapsed().as_secs_f64());
            let failed = checks.iter().filter(|c| !c.pass).count();
            if failed > 0 {
                eprintln!("{failed} capacity check(s) FAILED");
                std::process::exit(1);
            }
        } else {
            std::fs::write(&path, &doc).expect("write capacity json");
            println!("wrote {path}");
            println!("  ({:.1}s)\n", start.elapsed().as_secs_f64());
        }
        return;
    }
    if observe_mode {
        let mut jsonl = String::new();
        for id in &ids {
            let start = std::time::Instant::now();
            let Some(obs) = experiments::observe(id, &scale) else {
                eprintln!("no observe mapping for '{id}' (see `repro list`)");
                std::process::exit(2);
            };
            println!("{}", obs.render());
            println!("  ({:.1}s)\n", start.elapsed().as_secs_f64());
            if json_path.is_some() {
                jsonl.push_str(&obs.to_jsonl());
            }
        }
        if let Some(path) = json_path {
            std::fs::write(&path, jsonl).expect("write jsonl output");
            println!("wrote {path}");
        }
        return;
    }
    let mut campaign = Campaign::with_accept_mode(scale, accept_mode);
    if accept_mode == faults::AcceptMode::Sharded {
        println!("accept mode: sharded (per-worker listeners)\n");
    }
    let mut json_figs = Vec::new();
    let mut csv_out = String::new();
    let mut failures = 0usize;
    for id in &ids {
        let start = std::time::Instant::now();
        if id == "sensitivity" {
            let rows = run_sensitivity();
            println!("{}", render_sensitivity(&rows));
            let flipped = rows.iter().filter(|r| !r.all_hold()).count();
            if flipped > 0 {
                eprintln!("{flipped} perturbation(s) flipped a conclusion");
                failures += flipped;
            }
            println!(
                "  ({} perturbations, {:.1}s)\n",
                rows.len(),
                start.elapsed().as_secs_f64()
            );
            continue;
        }
        if id == "table-up" || id == "table-smp" {
            let which = if id == "table-up" {
                BestConfigTable::Uniprocessor
            } else {
                BestConfigTable::Smp
            };
            let (_rows, rendered) = best_config_table(&mut campaign, which);
            println!("{rendered}");
            continue;
        }
        let fig = campaign.build(id);
        let checks = check_figure(&fig);
        println!("{}", fig.render());
        println!("{}", fig.render_chart());
        if !checks.is_empty() {
            println!("{}", render_checks(&checks));
        }
        println!(
            "  ({} runs, {:.1}s)\n",
            fig.series.len() * fig.loads.len(),
            start.elapsed().as_secs_f64()
        );
        failures += checks.iter().filter(|c| !c.pass).count();
        if csv_path.is_some() {
            let block = fig.to_csv();
            if csv_out.is_empty() {
                csv_out.push_str(&block);
            } else {
                // Skip the repeated header.
                if let Some(idx) = block.find('\n') {
                    csv_out.push_str(&block[idx + 1..]);
                }
            }
        }
        json_figs.push(fig.to_json());
    }
    if let Some(path) = json_path {
        let doc = Json::obj(vec![
            ("paper", "Beltran et al., ICPP 2004".into()),
            ("figures", Json::Array(json_figs)),
        ]);
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(doc.render().as_bytes()).expect("write json");
        println!("wrote {path}");
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, csv_out).expect("write csv");
        println!("wrote {path}");
    }
    if failures > 0 {
        eprintln!("{failures} shape check(s) FAILED");
        std::process::exit(1);
    }
}
