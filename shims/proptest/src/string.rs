//! String strategies from regex-subset patterns.
//!
//! Real proptest interprets a `&str` strategy as a full regex. The shim
//! supports the exact pattern shapes used in this workspace:
//!
//! * `[class]{m,n}` / `[class]{n}` / `[class]*` / `[class]+` — a single
//!   character class (literals and `a-z` ranges) with a repetition.
//! * `\PC*` / `\PC+` / `\PC{m,n}` — "not a control character": printable
//!   chars drawn from ASCII plus a sprinkle of multi-byte code points, which
//!   is what the JSON-escaping tests need to exercise.
//!
//! Anything else panics loudly so a new test knows to extend this module.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (alphabet, reps) = parse_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string pattern strategy: {self:?}"));
        let span = (reps.1 - reps.0 + 1) as u64;
        let len = reps.0 + rng.below(span) as usize;
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

/// Printable sample space for `\PC`: dense ASCII coverage (so quotes and
/// backslashes show up often) plus multi-byte and astral code points.
fn printable_alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0x20u8..0x7f).map(|b| b as char).collect();
    chars.extend([
        'é', 'ß', 'λ', 'Ж', '中', '日', '…', '€', '\u{00a0}', '😀', '🦀',
    ]);
    chars
}

/// Returns (alphabet, (min_reps, max_reps)) or None if unsupported.
fn parse_pattern(pat: &str) -> Option<(Vec<char>, (usize, usize))> {
    let rest = if let Some(r) = pat.strip_prefix("\\PC") {
        return Some((printable_alphabet(), parse_reps(r)?));
    } else {
        pat.strip_prefix('[')?
    };
    let close = rest.find(']')?;
    let class = &rest[..close];
    let reps = parse_reps(&rest[close + 1..])?;
    let mut alphabet = Vec::new();
    let chars: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (lo, hi) = (chars[i] as u32, chars[i + 2] as u32);
            if lo > hi {
                return None;
            }
            alphabet.extend((lo..=hi).filter_map(char::from_u32));
            i += 3;
        } else {
            alphabet.push(chars[i]);
            i += 1;
        }
    }
    if alphabet.is_empty() {
        return None;
    }
    Some((alphabet, reps))
}

/// Parse a repetition suffix: `{m,n}`, `{n}`, `*`, `+`, or empty (one).
fn parse_reps(s: &str) -> Option<(usize, usize)> {
    match s {
        "" => Some((1, 1)),
        "*" => Some((0, 48)),
        "+" => Some((1, 48)),
        _ => {
            let body = s.strip_prefix('{')?.strip_suffix('}')?;
            if let Some((lo, hi)) = body.split_once(',') {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                (lo <= hi).then_some((lo, hi))
            } else {
                let n: usize = body.trim().parse().ok()?;
                Some((n, n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_with_ranges_parses() {
        let (alphabet, reps) = parse_pattern("[a-c_.]{2,5}").unwrap();
        assert_eq!(alphabet, vec!['a', 'b', 'c', '_', '.']);
        assert_eq!(reps, (2, 5));
    }

    #[test]
    fn star_and_plus_reps() {
        assert_eq!(parse_reps("*").unwrap().0, 0);
        assert_eq!(parse_reps("+").unwrap().0, 1);
        assert_eq!(parse_reps("{7}").unwrap(), (7, 7));
    }

    #[test]
    fn printable_pattern_samples_quotes_eventually() {
        let mut rng = TestRng::new(5);
        let mut saw_quote = false;
        let mut saw_backslash = false;
        for _ in 0..200 {
            let s = Strategy::sample(&"\\PC*", &mut rng);
            assert!(s.chars().all(|c| !c.is_control()));
            saw_quote |= s.contains('"');
            saw_backslash |= s.contains('\\');
        }
        assert!(
            saw_quote && saw_backslash,
            "escape-relevant chars must appear"
        );
    }

    #[test]
    #[should_panic(expected = "unsupported string pattern")]
    fn unknown_pattern_is_loud() {
        let mut rng = TestRng::new(6);
        let _ = Strategy::sample(&"(a|b)+", &mut rng);
    }
}
