//! IMF-fixdate formatting (`Sun, 06 Nov 1994 08:49:37 GMT`) without any
//! date-time dependency: civil-from-days per Howard Hinnant's algorithms.

use std::time::{Duration, Instant};

/// Render an HTTP-date for the given Unix timestamp (seconds).
pub fn http_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs_of_day = unix_secs % 86_400;
    let (y, m, d) = civil_from_days(days);
    // 1970-01-01 was a Thursday (weekday index 4 with Sunday = 0).
    let weekday = ((days % 7) + 4) % 7;
    const WDAYS: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    format!(
        "{}, {:02} {} {} {:02}:{:02}:{:02} GMT",
        WDAYS[weekday as usize],
        d,
        MONTHS[(m - 1) as usize],
        y,
        secs_of_day / 3600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60
    )
}

/// Days since 1970-01-01 → (year, month, day) in the proleptic Gregorian
/// calendar.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Current wall-clock HTTP-date (the only place the real servers touch the
/// system clock).
pub fn now_http_date() -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    http_date(now)
}

/// The current HTTP-date, re-rendered at most once a second from an
/// `Instant` the caller already holds: one `String` a second per owner,
/// not one per reply or per connection.
#[derive(Debug)]
pub struct DateCache {
    date: String,
    rendered_at: Instant,
}

impl DateCache {
    pub fn new(now: Instant) -> DateCache {
        DateCache {
            date: now_http_date(),
            rendered_at: now,
        }
    }

    /// The date as of `now`, at one-second resolution.
    pub fn get(&mut self, now: Instant) -> &str {
        if now.saturating_duration_since(self.rendered_at) >= Duration::from_secs(1) {
            self.date = now_http_date();
            self.rendered_at = now;
        }
        &self.date
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_reference_date() {
        // The RFC 9110 example: Sun, 06 Nov 1994 08:49:37 GMT = 784111777.
        assert_eq!(http_date(784_111_777), "Sun, 06 Nov 1994 08:49:37 GMT");
    }

    #[test]
    fn epoch() {
        assert_eq!(http_date(0), "Thu, 01 Jan 1970 00:00:00 GMT");
    }

    #[test]
    fn leap_day() {
        // 2004-02-29 12:00:00 UTC = 1078056000 (the paper's year!).
        assert_eq!(http_date(1_078_056_000), "Sun, 29 Feb 2004 12:00:00 GMT");
    }

    #[test]
    fn y2038_is_fine() {
        assert_eq!(http_date(2_147_483_648), "Tue, 19 Jan 2038 03:14:08 GMT");
    }

    #[test]
    fn date_cache_renders_at_most_once_a_second() {
        let t0 = Instant::now();
        let mut cache = DateCache::new(t0);
        let first = cache.get(t0).as_ptr();
        // Within the second, the cached string itself comes back.
        assert_eq!(cache.get(t0 + Duration::from_millis(999)).as_ptr(), first);
        assert_eq!(cache.rendered_at, t0);
        // A second on, it re-renders; an earlier instant never does.
        let t1 = t0 + Duration::from_secs(1);
        assert!(cache.get(t1).ends_with(" GMT"));
        assert_eq!(cache.rendered_at, t1);
        cache.get(t0);
        assert_eq!(cache.rendered_at, t1);
    }

    #[test]
    fn now_does_not_panic() {
        let s = now_http_date();
        assert!(s.ends_with(" GMT"));
    }
}
