//! Properties of the one JSON reader behind WAL lines and telemetry
//! traces (`harmony_recovery::json`).
//!
//! * A trace record survives `to_json` → `parse_line` → `to_json` byte
//!   for byte, whatever its integers (every `u64` clock, parent, id,
//!   tick count, delta and wall stamp; every `U64`/`I64` field), floats
//!   and strings.
//! * Corrupt WAL and trace lines — cut at every byte, one bit flipped,
//!   two lines spliced, a number replaced by 2^64 — decode or fail with
//!   a typed error; none panics, and no proper prefix of a line decodes.
//!
//! CI runs this file with an elevated `PROPTEST_CASES` in the
//! recovery job.

use harmony::recovery::{
    BatchRecord, ExploitKind, ExploitRecord, HeaderRecord, RoundDelta, WalRecord,
};
use harmony::telemetry::{parse_line, Field, Kind, Record, Value};
use proptest::prelude::*;

/// Characters that exercise every escape `Record::to_json` writes.
const CHARS: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
    '\u{2028}',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// Every `u64`, with the edges `f64` cannot hold drawn often.
fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..=u64::MAX,
        0..=u64::MAX,
        Just(u64::MAX),
        Just((1 << 53) + 1),
        Just((1 << 63) + 1),
        0u64..1000,
    ]
}

fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..=u64::MAX).prop_map(f64::from_bits),
        -1e6..1e6,
        Just(-0.0),
        Just(1e20),
        Just(f64::MAX),
    ]
}

fn field_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any_u64().prop_map(Value::U64),
        (i64::MIN..=i64::MAX).prop_map(Value::I64),
        any_f64().prop_map(Value::F64),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        text().prop_map(Value::Str),
    ]
}

fn record() -> impl Strategy<Value = Record> {
    let kind = (0u8..6, any_u64(), any_u64(), any_f64()).prop_map(|(k, a, b, v)| match k {
        0 => Kind::Event,
        1 => Kind::SpanEnter { id: a },
        2 => Kind::SpanExit { id: a, ticks: b },
        3 => Kind::Counter { delta: a },
        4 => Kind::Gauge { value: v },
        _ => Kind::Sample { value: v },
    });
    let fields = prop::collection::vec((text(), field_value()), 0..4).prop_map(|fs| {
        fs.into_iter()
            .map(|(key, value)| Field::new(key, value))
            .collect::<Vec<_>>()
    });
    let wall = (0u8..2, any_u64()).prop_map(|(on, w)| (on == 1).then_some(w));
    (any_u64(), any_u64(), kind, text(), fields, wall).prop_map(
        |(clock, parent, kind, name, fields, wall_ns)| Record {
            clock,
            parent,
            kind,
            name,
            fields,
            wall_ns,
        },
    )
}

fn usizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, 0..5)
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    let round = (any_u64(), usizes(), usizes(), 0usize..9).prop_map(|(s, cl, ev, n)| RoundDelta {
        step: f64::from_bits(s),
        ok: cl.iter().map(|c| c % 2 == 0).collect(),
        clients: cl,
        evicted: ev,
        missed: n,
        retries: n / 2,
        abandoned: n / 3,
        duplicates: n / 4,
    });
    let estimates = prop::collection::vec((0u8..3, any_u64()), 0..5).prop_map(|es| {
        es.into_iter()
            .map(|(some, b)| (some > 0).then(|| f64::from_bits(b)))
            .collect::<Vec<_>>()
    });
    let draws = prop::collection::vec(any_u64(), 0..4);
    (
        0u8..3,
        (any_u64(), any_u64(), 0usize..1000),
        estimates,
        prop::collection::vec(round, 0..3),
        (usizes(), usizes(), draws),
        (0u8..5, 0u32..8),
    )
        .prop_map(
            |(t, (a, b, n), estimates, rounds, (live, serials, draws), (k, r))| {
                let stats = [n, n / 2, n / 3, n / 4, n / 5, n / 6];
                match t {
                    0 => WalRecord::Header(HeaderRecord {
                        version: 1,
                        procs: n,
                        max_steps: n * 2,
                        k: usize::from(k) + 1,
                        seed: a,
                        deadline: f64::from_bits(b),
                        max_retries: r,
                        backoff: 1.5,
                        quorum: 0.5,
                        supervised: k % 2 == 1,
                    }),
                    1 => WalRecord::Batch(BatchRecord {
                        batch: a,
                        estimates,
                        rounds,
                        partial: k % 2 == 0,
                        forced: k == 3,
                        evaluations: n,
                        live,
                        serials,
                        draws,
                        stats,
                    }),
                    _ => WalRecord::Exploit(ExploitRecord {
                        batch: a,
                        step: f64::from_bits(b),
                        pre_evicted: live.clone(),
                        duplicate: k == 1,
                        kind: match k {
                            0 => ExploitKind::OnTime,
                            1 => ExploitKind::Late,
                            2 => ExploitKind::Lost,
                            _ => ExploitKind::Died(n),
                        },
                        live,
                        serials,
                        draws,
                        stats,
                    }),
                }
            },
        )
}

/// Decodes `bytes` (lossily, as a reader of a file would get them) as a
/// WAL line and as a trace line; returns whether each decoded.
fn decode(bytes: &[u8]) -> (bool, bool) {
    let line = String::from_utf8_lossy(bytes);
    (
        WalRecord::from_line(&line).is_ok(),
        parse_line(&line).is_ok(),
    )
}

/// The byte ranges of the number literals in `line`.
fn numbers(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || matches!(b[i - 1], b':' | b',' | b'[')) {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trace_records_round_trip_byte_for_byte(r in record()) {
        let line = r.to_json();
        let back = parse_line(&line).expect("a written record parses");
        prop_assert_eq!(back.to_json(), line);
    }

    #[test]
    fn wal_records_round_trip_byte_for_byte(rec in wal_record()) {
        let line = rec.to_line();
        let back = WalRecord::from_line(&line).expect("a written record parses");
        prop_assert_eq!(back.to_line(), line);
    }

    #[test]
    fn corrupt_lines_are_errors_not_panics(
        wal in wal_record(),
        trace in record(),
        at in 0..=u64::MAX,
        bit in 0u8..8,
    ) {
        let lines = [wal.to_line(), trace.to_json()];
        for line in &lines {
            let bytes = line.as_bytes();
            for cut in 0..bytes.len() {
                prop_assert_eq!(decode(&bytes[..cut]), (false, false), "{} cut at {}", line, cut);
            }
            let mut flipped = bytes.to_vec();
            flipped[(at % bytes.len() as u64) as usize] ^= 1 << bit;
            decode(&flipped);
            let nums = numbers(line);
            if !nums.is_empty() {
                let (s, e) = nums[(at % nums.len() as u64) as usize];
                let wide = format!("{}18446744073709551616{}", &line[..s], &line[e..]);
                let (wal_ok, _) = decode(wide.as_bytes());
                prop_assert!(!wal_ok, "a WAL integer of 2^64 decoded: {}", wide);
            }
        }
        let (a, b) = (lines[0].as_bytes(), lines[1].as_bytes());
        let spliced = [&a[..(at % a.len() as u64) as usize], &b[(at % b.len() as u64) as usize..]].concat();
        decode(&spliced);
    }
}
