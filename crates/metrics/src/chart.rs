//! Terminal line charts.
//!
//! The `repro` binary's tables give exact numbers; these charts give the
//! *shape* — which is what the reproduction is graded on. Multiple series
//! share one canvas, each with its own glyph; axes are scaled to the data
//! with a log-ish option for the response-time panels whose interesting
//! region spans three decades.

use std::fmt::Write as _;

/// A renderable series: label + y values (one per shared x position).
#[derive(Debug, Clone)]
pub struct ChartSeries {
    pub label: String,
    pub values: Vec<f64>,
}

/// Chart configuration.
#[derive(Debug, Clone)]
pub struct ChartConfig {
    pub width: usize,
    pub height: usize,
    /// Log₁₀ y-axis (zeros clamp to the smallest positive value drawn).
    pub log_y: bool,
}

impl Default for ChartConfig {
    fn default() -> Self {
        ChartConfig {
            width: 64,
            height: 16,
            log_y: false,
        }
    }
}

const GLYPHS: [char; 8] = ['o', '*', '+', 'x', '#', '@', '%', '&'];

/// Render series over shared x labels into a boxed ASCII chart.
pub fn render_chart(x_labels: &[u32], series: &[ChartSeries], cfg: &ChartConfig) -> String {
    assert!(!series.is_empty(), "chart with no series");
    assert!(cfg.width >= 8 && cfg.height >= 4, "chart too small");
    let n = x_labels.len();
    assert!(
        series.iter().all(|s| s.values.len() == n),
        "series length mismatch"
    );

    // Y range over all finite values.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in series {
        for &v in &s.values {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    if !lo.is_finite() {
        lo = 0.0;
        hi = 1.0;
    }
    if cfg.log_y {
        lo = lo.max(hi * 1e-4).max(1e-9);
    }
    if (hi - lo).abs() < 1e-12 {
        hi = lo + 1.0;
    }

    let y_of = |v: f64| -> f64 {
        if cfg.log_y {
            let v = v.max(lo);
            (v.ln() - lo.ln()) / (hi.ln() - lo.ln())
        } else {
            (v - lo) / (hi - lo)
        }
    };

    // Paint the canvas.
    let mut canvas = vec![vec![' '; cfg.width]; cfg.height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        let mut prev: Option<(usize, usize)> = None;
        for (i, &v) in s.values.iter().enumerate() {
            if !v.is_finite() {
                prev = None;
                continue;
            }
            let x = if n == 1 {
                0
            } else {
                i * (cfg.width - 1) / (n - 1)
            };
            let y_frac = y_of(v).clamp(0.0, 1.0);
            let y = cfg.height - 1 - (y_frac * (cfg.height - 1) as f64).round() as usize;
            // Connect to the previous point with a sparse line.
            if let Some((px, py)) = prev {
                let steps = x.saturating_sub(px).max(1);
                for step in 1..steps {
                    let ix = px + step;
                    let iy = (py as f64 + (y as f64 - py as f64) * step as f64 / steps as f64)
                        .round() as usize;
                    if canvas[iy][ix] == ' ' {
                        canvas[iy][ix] = '.';
                    }
                }
            }
            canvas[y][x] = glyph;
            prev = Some((x, y));
        }
    }

    // Assemble with a y-axis gutter and an x-axis rule.
    let mut out = String::new();
    let fmt_y = |v: f64| -> String {
        if v == 0.0 {
            "0".into()
        } else if v.abs() >= 10_000.0 {
            format!("{:.0}k", v / 1000.0)
        } else if v.abs() >= 10.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.2}")
        }
    };
    let top_label = fmt_y(hi);
    let bot_label = fmt_y(lo);
    let gutter = top_label.len().max(bot_label.len());
    for (row, line) in canvas.iter().enumerate() {
        let y_label = if row == 0 {
            top_label.clone()
        } else if row == cfg.height - 1 {
            bot_label.clone()
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:>gutter$} |{}",
            y_label,
            line.iter().collect::<String>()
        );
    }
    let _ = writeln!(out, "{:>gutter$} +{}", "", "-".repeat(cfg.width));
    let first = x_labels.first().copied().unwrap_or(0).to_string();
    let last = x_labels.last().copied().unwrap_or(0).to_string();
    let pad = cfg.width.saturating_sub(first.len() + last.len());
    let _ = writeln!(out, "{:>gutter$}  {}{}{}", "", first, " ".repeat(pad), last);
    // Legend.
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{} {}", GLYPHS[i % GLYPHS.len()], s.label))
        .collect();
    let _ = writeln!(out, "{:>gutter$}  {}", "", legend.join("   "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(label: &str, values: Vec<f64>) -> ChartSeries {
        ChartSeries {
            label: label.into(),
            values,
        }
    }

    #[test]
    fn renders_single_rising_series() {
        let s = render_chart(
            &[60, 600, 6000],
            &[series("nio", vec![100.0, 1000.0, 3000.0])],
            &ChartConfig::default(),
        );
        assert!(s.contains('o'), "{s}");
        assert!(s.contains("o nio"));
        assert!(s.contains("60"));
        assert!(s.contains("6000"));
        // Max appears in the top-row label.
        assert!(s.contains("3000"), "{s}");
    }

    #[test]
    fn two_series_use_distinct_glyphs() {
        let s = render_chart(
            &[1, 2],
            &[series("a", vec![1.0, 2.0]), series("b", vec![2.0, 1.0])],
            &ChartConfig::default(),
        );
        assert!(s.contains('o') && s.contains('*'));
        assert!(s.contains("o a") && s.contains("* b"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = render_chart(
            &[1, 2, 3],
            &[series("flat", vec![5.0, 5.0, 5.0])],
            &ChartConfig::default(),
        );
        assert!(s.contains('o'));
    }

    #[test]
    fn log_scale_spreads_decades() {
        let cfg = ChartConfig {
            log_y: true,
            ..ChartConfig::default()
        };
        let s = render_chart(
            &[1, 2, 3, 4],
            &[series("resp", vec![1.0, 10.0, 100.0, 1000.0])],
            &cfg,
        );
        // On a log axis the four points land on distinct rows spread over
        // the canvas; on a linear axis the first three would collapse to
        // the bottom row. Count distinct rows containing the glyph.
        let rows: Vec<usize> = s
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains('o'))
            .map(|(i, _)| i)
            .collect();
        assert!(rows.len() >= 4, "log axis should spread points: {s}");
    }

    #[test]
    fn nan_points_are_skipped() {
        let s = render_chart(
            &[1, 2, 3],
            &[series("gappy", vec![1.0, f64::NAN, 3.0])],
            &ChartConfig::default(),
        );
        assert!(s.contains('o'));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        render_chart(
            &[1, 2, 3],
            &[series("short", vec![1.0])],
            &ChartConfig::default(),
        );
    }
}
