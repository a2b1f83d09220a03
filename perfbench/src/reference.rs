//! Each workload's expected output, computed in plain Rust from the
//! generated bids with no engine code, and the check of a sink file
//! against it.

use std::collections::BTreeMap;
use std::path::Path;

use crate::workload::{bids, Workload, SCAN_PRICE_FLOOR};

/// `(wend_ms, auction)`: one window of one auction.
type Key = (i64, i64);

/// What a workload's sink file must hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// `scan`: the filtered `(auction, bidder, price)` rows, as a sorted
    /// multiset.
    Scan(Vec<(i64, i64, i64)>),
    /// `keyed_window`: `COUNT/SUM/MAX(price)` per one-minute window and
    /// auction.
    Window(BTreeMap<Key, (i64, i64, i64)>),
    /// `net_updates`: `COUNT/MAX(price)` per ten-second window and
    /// auction, the final table once retractions are applied.
    Net(BTreeMap<Key, (i64, i64)>),
}

fn window_end(event_ms: i64, width_ms: i64) -> i64 {
    (event_ms.div_euclid(width_ms) + 1) * width_ms
}

/// The expected output of `workload` over the first `events` bids of
/// `seed`.
pub fn expected(workload: Workload, seed: u64, events: u64) -> Expected {
    let bids = bids(seed, events).map(|(_, b)| b);
    match workload {
        Workload::Scan => {
            let mut rows: Vec<_> = bids
                .filter(|b| b.price > SCAN_PRICE_FLOOR)
                .map(|b| (b.auction, b.bidder, b.price))
                .collect();
            rows.sort_unstable();
            Expected::Scan(rows)
        }
        Workload::KeyedWindow => {
            let mut out: BTreeMap<Key, (i64, i64, i64)> = BTreeMap::new();
            for b in bids {
                let key = (window_end(b.date_time.millis(), 60_000), b.auction);
                let agg = out.entry(key).or_insert((0, 0, i64::MIN));
                agg.0 += 1;
                agg.1 += b.price;
                agg.2 = agg.2.max(b.price);
            }
            Expected::Window(out)
        }
        Workload::NetUpdates => {
            let mut out: BTreeMap<Key, (i64, i64)> = BTreeMap::new();
            for b in bids {
                let key = (window_end(b.date_time.millis(), 10_000), b.auction);
                let agg = out.entry(key).or_insert((0, i64::MIN));
                agg.0 += 1;
                agg.1 = agg.1.max(b.price);
            }
            Expected::Net(out)
        }
    }
}

/// Parse the engine's timestamp rendering, `[-]H:MM` or
/// `[-]H:MM:SS.mmm`, into milliseconds.
fn parse_clock(text: &str) -> Option<i64> {
    let (sign, body) = match text.strip_prefix('-') {
        Some(rest) => (-1, rest),
        None => (1, text),
    };
    let mut parts = body.split(':');
    let hours: i64 = parts.next()?.parse().ok()?;
    let minutes: i64 = parts.next()?.parse().ok()?;
    let millis = match parts.next() {
        None => 0,
        Some(s) => {
            let (secs, frac) = s.split_once('.')?;
            if frac.len() != 3 {
                return None;
            }
            secs.parse::<i64>().ok()? * 1_000 + frac.parse::<i64>().ok()?
        }
    };
    if parts.next().is_some() {
        return None;
    }
    Some(sign * ((hours * 60 + minutes) * 60_000 + millis))
}

fn ints(fields: &[&str]) -> Option<Vec<i64>> {
    fields.iter().map(|f| f.parse().ok()).collect()
}

/// The data lines of a CSV sink file (its header dropped), split.
fn records(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines().skip(1).map(|l| l.split(',').collect())
}

/// How much of the output is wrong. For the closed-loop workloads the
/// unit is the whole repetition (0 or 1 of 1); for `net_updates` it is
/// the input event: every event of a window whose final row is wrong or
/// missing, plus the count of every row that should not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Units checked.
    pub attempted: u64,
    /// Units found wrong.
    pub failed: u64,
}

/// Units one repetition of `workload` over `events` bids attempts.
pub fn attempted(workload: Workload, events: u64) -> u64 {
    if workload.open_loop() {
        events
    } else {
        1
    }
}

/// Check the sink file at `path` against `expected`.
pub fn check(expected: &Expected, workload: Workload, events: u64, path: &Path) -> Verdict {
    let attempted = attempted(workload, events);
    let all_failed = Verdict {
        attempted,
        failed: attempted,
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return all_failed;
    };
    let failed = match expected {
        Expected::Scan(rows) => u64::from(scan_rows(&text).as_ref() != Some(rows)),
        Expected::Window(rows) => u64::from(window_rows(&text).as_ref() != Some(rows)),
        Expected::Net(rows) => match net_rows(&text) {
            Some(got) => net_failed(rows, &got),
            None => attempted,
        },
    };
    Verdict { attempted, failed }
}

fn scan_rows(text: &str) -> Option<Vec<(i64, i64, i64)>> {
    let mut rows = records(text)
        .map(|f| match ints(&f)?.as_slice() {
            &[auction, bidder, price] => Some((auction, bidder, price)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    rows.sort_unstable();
    Some(rows)
}

fn window_rows(text: &str) -> Option<BTreeMap<Key, (i64, i64, i64)>> {
    let mut out = BTreeMap::new();
    for f in records(text) {
        let (wend, rest) = f.split_first()?;
        let &[auction, count, sum, max] = ints(rest)?.as_slice() else {
            return None;
        };
        let key = (parse_clock(wend)?, auction);
        if out.insert(key, (count, sum, max)).is_some() {
            return None;
        }
    }
    Some(out)
}

/// Apply the changelog's retractions and return the final table, or
/// `None` if the file is malformed or a row's multiplicity ends other
/// than 0 or 1.
fn net_rows(text: &str) -> Option<BTreeMap<Key, (i64, i64)>> {
    let mut multiplicity: BTreeMap<(Key, i64, i64), i64> = BTreeMap::new();
    for f in records(text) {
        // wend, auction, count, max, undo, ptime, ver
        let &[wend, auction, count, max, undo, _ptime, _ver] = f.as_slice() else {
            return None;
        };
        let diff = match undo {
            "false" => 1,
            "true" => -1,
            _ => return None,
        };
        let row = (
            (parse_clock(wend)?, auction.parse().ok()?),
            count.parse().ok()?,
            max.parse().ok()?,
        );
        *multiplicity.entry(row).or_default() += diff;
    }
    let mut out = BTreeMap::new();
    for ((key, count, max), m) in multiplicity {
        match m {
            0 => {}
            1 if !out.contains_key(&key) => {
                out.insert(key, (count, max));
            }
            _ => return None,
        }
    }
    Some(out)
}

fn net_failed(expected: &BTreeMap<Key, (i64, i64)>, got: &BTreeMap<Key, (i64, i64)>) -> u64 {
    let wrong: i64 = expected
        .iter()
        .filter(|(key, row)| got.get(key) != Some(row))
        .map(|(_, (count, _))| count)
        .sum();
    let extra: i64 = got
        .iter()
        .filter(|(key, _)| !expected.contains_key(key))
        .map(|(_, (count, _))| (*count).max(1))
        .sum();
    (wrong + extra) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_strings_parse() {
        assert_eq!(parse_clock("8:01"), Some(8 * 3_600_000 + 60_000));
        assert_eq!(parse_clock("27:46:40.000"), Some(100_000_000));
        assert_eq!(parse_clock("0:00:00.050"), Some(50));
        assert_eq!(parse_clock("-0:01"), Some(-60_000));
        assert_eq!(parse_clock("8:01:02"), None);
        assert_eq!(parse_clock("x"), None);
    }

    #[test]
    fn windows_end_after_their_events() {
        assert_eq!(window_end(0, 60_000), 60_000);
        assert_eq!(window_end(59_999, 60_000), 60_000);
        assert_eq!(window_end(60_000, 60_000), 120_000);
    }

    #[test]
    fn changelog_retractions_cancel() {
        let text = "wend,auction,c,m,undo,ptime,ver\n\
                    0:00:10.000,7,1,5,false,0:00,0\n\
                    0:00:10.000,7,1,5,true,0:00,1\n\
                    0:00:10.000,7,2,9,false,0:00,1\n";
        let got = net_rows(text).unwrap();
        assert_eq!(got, BTreeMap::from([((10_000, 7), (2, 9))]));
        // A dangling retraction is malformed.
        assert_eq!(net_rows("h\n0:00:10.000,7,1,5,true,0:00,0\n"), None);
    }
}
