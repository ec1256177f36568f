//! Property tests for the measurement layer: histogram quantile bounds and
//! relative-error guarantees, summary merge associativity, JSON validity
//! and the render→parse round trip.

use desim::Rng;
use metrics::{Histogram, Json, Summary};
use proptest::prelude::*;

/// Characters that exercise every branch of the string codec: the two
/// mandatory escapes, named control escapes, a `\u` control, and 2-, 3-
/// and 4-byte UTF-8.
const STRING_CHARS: [char; 14] = [
    'a', 'Z', '7', ' ', '"', '\\', '\r', '\n', '\t', '\u{1}', 'é', '€', '中', '🦀',
];

fn random_string(rng: &mut Rng) -> String {
    (0..rng.below(12))
        .map(|_| STRING_CHARS[rng.below(STRING_CHARS.len() as u64) as usize])
        .collect()
}

/// A finite number: integral (rendered without a fraction) or fractional,
/// over many magnitudes and both signs.
fn random_number(rng: &mut Rng) -> f64 {
    let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
    if rng.chance(0.5) {
        sign * rng.below(1 << 53) as f64
    } else {
        sign * rng.f64() * 10f64.powi(rng.below(40) as i32 - 20)
    }
}

/// A random finite JSON tree with nested objects and arrays.
fn random_tree(rng: &mut Rng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Array(
            (0..rng.below(5))
                .map(|_| random_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.below(5))
                .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    /// Everything the writer emits, the reader returns unchanged.
    #[test]
    fn json_parse_inverts_render(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let v = random_tree(&mut rng, 4);
        let text = v.render();
        prop_assert_eq!(Json::parse(&text), Ok(v), "{}", text);
    }

    /// Quantiles are within the recorded range, monotone in q, and the
    /// median of a single repeated value is that value (±precision).
    #[test]
    fn histogram_quantile_bounds(values in proptest::collection::vec(0u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::default_precision();
        for &v in &values {
            h.record(v);
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let mut prev = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            prop_assert!(q >= lo && q <= hi, "q{i}: {q} outside [{lo}, {hi}]");
            prop_assert!(q >= prev, "quantiles not monotone");
            prev = q;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// The histogram's relative error bound: any recorded value's
    /// reconstructed representative is within 1% (2^-7).
    #[test]
    fn histogram_relative_error(v in 1u64..u64::MAX / 2) {
        let mut h = Histogram::new(7);
        h.record(v);
        let got = h.quantile(0.5) as f64;
        let err = (got - v as f64).abs() / v as f64;
        prop_assert!(err < 0.01, "value {v}: got {got}, rel err {err}");
    }

    /// Histogram merge is equivalent to recording the concatenation.
    #[test]
    fn histogram_merge_equivalence(
        a in proptest::collection::vec(0u64..1_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ha = Histogram::default_precision();
        let mut hb = Histogram::default_precision();
        let mut hall = Histogram::default_precision();
        for &v in &a { ha.record(v); hall.record(v); }
        for &v in &b { hb.record(v); hall.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.min(), hall.min());
        prop_assert_eq!(ha.max(), hall.max());
        for i in 0..=10 {
            prop_assert_eq!(ha.quantile(i as f64 / 10.0), hall.quantile(i as f64 / 10.0));
        }
    }

    /// Summary merge is order-insensitive and matches sequential feeding.
    #[test]
    fn summary_merge_associative(
        a in proptest::collection::vec(-1e6f64..1e6, 1..100),
        b in proptest::collection::vec(-1e6f64..1e6, 1..100),
        c in proptest::collection::vec(-1e6f64..1e6, 1..100),
    ) {
        let feed = |xs: &[f64]| {
            let mut s = Summary::new();
            for &x in xs { s.add(x); }
            s
        };
        let mut left = feed(&a);
        left.merge(&feed(&b));
        left.merge(&feed(&c));
        let mut right = feed(&b);
        right.merge(&feed(&c));
        let mut outer = feed(&a);
        outer.merge(&right);
        prop_assert_eq!(left.count(), outer.count());
        prop_assert!((left.mean() - outer.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - outer.variance()).abs()
            / (1.0 + left.variance()) < 1e-6);
        prop_assert_eq!(left.min(), outer.min());
        prop_assert_eq!(left.max(), outer.max());
    }

    /// JSON strings of arbitrary content produce output that never contains
    /// raw control characters or unescaped quotes inside the literal.
    #[test]
    fn json_strings_always_escape(s in "\\PC*") {
        let rendered = Json::Str(s.clone()).render();
        prop_assert!(rendered.starts_with('"') && rendered.ends_with('"'));
        let inner = &rendered[1..rendered.len() - 1];
        // No unescaped quote: every '"' must be preceded by a backslash run
        // of odd length.
        let bytes = inner.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                let mut backslashes = 0;
                let mut j = i;
                while j > 0 && bytes[j - 1] == b'\\' {
                    backslashes += 1;
                    j -= 1;
                }
                prop_assert!(backslashes % 2 == 1, "unescaped quote in {rendered}");
            }
            prop_assert!(b >= 0x20, "raw control byte {b:#x} in output");
        }
    }
}
