//! The write-ahead observation log (WAL): one JSONL record per
//! committed server batch (and per exploit step), carrying everything
//! needed to *re-apply* the batch to the optimizer and to *re-emit* its
//! telemetry without touching clients or the objective.
//!
//! Records are single-line JSON with a fixed schema. [`WalRecord::to_line`]
//! writes them by hand (the batch arms sit on the session hot path);
//! [`WalRecord::from_line`] maps the workspace's one JSON reader,
//! [`crate::json`], onto the schema, so a corrupt line is a typed
//! [`CodecError`]. Integers are read exactly; floats travel as their
//! `f64::to_bits` words rendered as decimal `u64`s, so replay is
//! bit-exact; `null` encodes an absent estimate, and flags are written
//! as `0`/`1`.

use crate::codec::CodecError;
use crate::json::{self, Value};
use std::fmt::Write as _;

/// WAL schema version; bump on breaking record changes.
pub const WAL_VERSION: u32 = 1;

/// Session parameters echoed at the head of every WAL so a resume with
/// mismatched configuration fails loudly instead of replaying garbage.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderRecord {
    /// WAL schema version.
    pub version: u32,
    /// Client count.
    pub procs: usize,
    /// Step budget.
    pub max_steps: usize,
    /// Samples per point (estimator arity).
    pub k: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Miss deadline.
    pub deadline: f64,
    /// Retry budget per slot.
    pub max_retries: u32,
    /// Deadline escalation factor.
    pub backoff: f64,
    /// Batch quorum fraction.
    pub quorum: f64,
    /// Whether the session ran under the supervisor.
    pub supervised: bool,
}

/// Fault handling of one dispatch round, in server emission order —
/// enough to re-emit the round's telemetry and to replay per-client
/// health updates exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDelta {
    /// Barrier time the round pushed onto the trace.
    pub step: f64,
    /// Clients dispatched to, one per round position.
    pub clients: Vec<usize>,
    /// Per-position: `true` when the slot resolved with an observation.
    pub ok: Vec<bool>,
    /// Clients evicted during the round, in emission order.
    pub evicted: Vec<usize>,
    /// Missed-report count of the round.
    pub missed: usize,
    /// Retries queued by the round.
    pub retries: usize,
    /// Slots abandoned by the round.
    pub abandoned: usize,
    /// Duplicate reports matched during the round.
    pub duplicates: usize,
}

/// One committed optimizer batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Server batch id.
    pub batch: u64,
    /// Final per-point estimates (`None` = abandoned hole).
    pub estimates: Vec<Option<f64>>,
    /// The dispatch rounds the batch took, in order.
    pub rounds: Vec<RoundDelta>,
    /// Whether the batch advanced via `observe_partial`.
    pub partial: bool,
    /// Whether the supervisor forced a below-quorum advance.
    pub forced: bool,
    /// Cumulative client evaluations after the batch.
    pub evaluations: usize,
    /// Live clients after the batch, ascending.
    pub live: Vec<usize>,
    /// Per-client task serials after the batch (len = procs).
    pub serials: Vec<usize>,
    /// Per-client cumulative RNG words consumed after the batch.
    pub draws: Vec<u64>,
    /// Cumulative fault counters after the batch, in canonical order:
    /// missed, retries, abandoned, duplicates, evicted, partial.
    pub stats: [usize; 6],
}

/// How one exploit-phase dispatch resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploitKind {
    /// An on-time observation.
    OnTime,
    /// Report arrived late; the deadline was charged.
    Late,
    /// Report was dropped; the deadline was charged.
    Lost,
    /// The runner died mid-assignment (client id).
    Died(usize),
}

/// One exploit-phase step (the incumbent re-run loop after tuning).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploitRecord {
    /// Server batch id after this step's successful dispatch.
    pub batch: u64,
    /// Time pushed onto the trace (observation or charged deadline).
    pub step: f64,
    /// Runners evicted on send failure before the dispatch succeeded.
    pub pre_evicted: Vec<usize>,
    /// Whether the matched report was flagged duplicate.
    pub duplicate: bool,
    /// Resolution of the dispatched assignment.
    pub kind: ExploitKind,
    /// Live clients after the step, ascending.
    pub live: Vec<usize>,
    /// Per-client task serials after the step.
    pub serials: Vec<usize>,
    /// Per-client cumulative RNG words consumed after the step.
    pub draws: Vec<u64>,
    /// Cumulative fault counters after the step (same order as
    /// [`BatchRecord::stats`]).
    pub stats: [usize; 6],
}

/// One WAL line.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The session-parameter echo (first line of every WAL).
    Header(HeaderRecord),
    /// A committed optimizer batch.
    Batch(BatchRecord),
    /// An exploit-phase step.
    Exploit(ExploitRecord),
}

impl WalRecord {
    /// Serialises the record as one JSON line (no trailing newline).
    /// The batch/exploit arms sit on the session hot path, so all
    /// numbers go through `push_int` instead of `fmt` — the
    /// `recovery.journal` gate of the `overhead` binary budgets the
    /// whole journal at 5% of a synthetic 8-client session.
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(512);
        match self {
            WalRecord::Header(h) => {
                let _ = write!(
                    s,
                    "{{\"t\":\"hdr\",\"v\":{},\"procs\":{},\"steps\":{},\"k\":{},\"seed\":{},\
                     \"deadline\":{},\"retries\":{},\"backoff\":{},\"quorum\":{},\"sup\":{}}}",
                    h.version,
                    h.procs,
                    h.max_steps,
                    h.k,
                    h.seed,
                    h.deadline.to_bits(),
                    h.max_retries,
                    h.backoff.to_bits(),
                    h.quorum.to_bits(),
                    h.supervised as u8,
                );
            }
            WalRecord::Batch(b) => {
                s.push_str("{\"t\":\"batch\",\"b\":");
                push_int(&mut s, b.batch);
                s.push_str(",\"est\":");
                push_opt_bits(&mut s, &b.estimates);
                s.push_str(",\"rounds\":[");
                for (i, r) in b.rounds.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"s\":");
                    push_int(&mut s, r.step.to_bits());
                    s.push_str(",\"cl\":");
                    push_usizes(&mut s, &r.clients);
                    s.push_str(",\"ok\":");
                    push_bools(&mut s, &r.ok);
                    s.push_str(",\"ev\":");
                    push_usizes(&mut s, &r.evicted);
                    s.push_str(",\"miss\":");
                    push_int(&mut s, r.missed as u64);
                    s.push_str(",\"retry\":");
                    push_int(&mut s, r.retries as u64);
                    s.push_str(",\"aband\":");
                    push_int(&mut s, r.abandoned as u64);
                    s.push_str(",\"dup\":");
                    push_int(&mut s, r.duplicates as u64);
                    s.push('}');
                }
                s.push_str("],\"partial\":");
                push_int(&mut s, b.partial as u64);
                s.push_str(",\"forced\":");
                push_int(&mut s, b.forced as u64);
                s.push_str(",\"evals\":");
                push_int(&mut s, b.evaluations as u64);
                s.push_str(",\"live\":");
                push_usizes(&mut s, &b.live);
                s.push_str(",\"ser\":");
                push_usizes(&mut s, &b.serials);
                s.push_str(",\"draws\":");
                push_u64s(&mut s, &b.draws);
                s.push_str(",\"stats\":");
                push_usizes(&mut s, &b.stats);
                s.push('}');
            }
            WalRecord::Exploit(e) => {
                let (kind, died) = match e.kind {
                    ExploitKind::OnTime => (0u8, None),
                    ExploitKind::Late => (1, None),
                    ExploitKind::Lost => (2, None),
                    ExploitKind::Died(c) => (3, Some(c)),
                };
                s.push_str("{\"t\":\"exploit\",\"b\":");
                push_int(&mut s, e.batch);
                s.push_str(",\"s\":");
                push_int(&mut s, e.step.to_bits());
                s.push_str(",\"pe\":");
                push_usizes(&mut s, &e.pre_evicted);
                s.push_str(",\"dup\":");
                push_int(&mut s, e.duplicate as u64);
                s.push_str(",\"kind\":");
                push_int(&mut s, kind as u64);
                s.push_str(",\"dc\":");
                match died {
                    Some(c) => push_int(&mut s, c as u64),
                    None => s.push_str("null"),
                }
                s.push_str(",\"live\":");
                push_usizes(&mut s, &e.live);
                s.push_str(",\"ser\":");
                push_usizes(&mut s, &e.serials);
                s.push_str(",\"draws\":");
                push_u64s(&mut s, &e.draws);
                s.push_str(",\"stats\":");
                push_usizes(&mut s, &e.stats);
                s.push('}');
            }
        }
        s
    }

    /// Parses one JSON line back into a record.
    pub fn from_line(line: &str) -> Result<Self, CodecError> {
        let rec = json::parse(line)?;
        match rec.field("t")?.as_str()? {
            "hdr" => Ok(WalRecord::Header(HeaderRecord {
                version: int(rec.field("v")?)?,
                procs: int(rec.field("procs")?)?,
                max_steps: int(rec.field("steps")?)?,
                k: int(rec.field("k")?)?,
                seed: rec.field("seed")?.as_u64()?,
                deadline: bits_field(&rec, "deadline")?,
                max_retries: int(rec.field("retries")?)?,
                backoff: bits_field(&rec, "backoff")?,
                quorum: bits_field(&rec, "quorum")?,
                supervised: rec.field("sup")?.as_u64()? != 0,
            })),
            "batch" => Ok(WalRecord::Batch(BatchRecord {
                batch: rec.field("b")?.as_u64()?,
                estimates: list(&rec, "est", |v| match v {
                    Value::Null => Ok(None),
                    v => Ok(Some(f64::from_bits(v.as_u64()?))),
                })?,
                rounds: list(&rec, "rounds", |r| {
                    Ok(RoundDelta {
                        step: bits_field(r, "s")?,
                        clients: list(r, "cl", int)?,
                        ok: list(r, "ok", |v| Ok(v.as_u64()? != 0))?,
                        evicted: list(r, "ev", int)?,
                        missed: int(r.field("miss")?)?,
                        retries: int(r.field("retry")?)?,
                        abandoned: int(r.field("aband")?)?,
                        duplicates: int(r.field("dup")?)?,
                    })
                })?,
                partial: rec.field("partial")?.as_u64()? != 0,
                forced: rec.field("forced")?.as_u64()? != 0,
                evaluations: int(rec.field("evals")?)?,
                live: list(&rec, "live", int)?,
                serials: list(&rec, "ser", int)?,
                draws: list(&rec, "draws", Value::as_u64)?,
                stats: stats_array(&rec)?,
            })),
            "exploit" => {
                let kind = match rec.field("kind")?.as_u64()? {
                    0 => ExploitKind::OnTime,
                    1 => ExploitKind::Late,
                    2 => ExploitKind::Lost,
                    3 => ExploitKind::Died(int(rec.field("dc")?)?),
                    k => return Err(CodecError::BadValue(format!("bad exploit kind {k}"))),
                };
                Ok(WalRecord::Exploit(ExploitRecord {
                    batch: rec.field("b")?.as_u64()?,
                    step: bits_field(&rec, "s")?,
                    pre_evicted: list(&rec, "pe", int)?,
                    duplicate: rec.field("dup")?.as_u64()? != 0,
                    kind,
                    live: list(&rec, "live", int)?,
                    serials: list(&rec, "ser", int)?,
                    draws: list(&rec, "draws", Value::as_u64)?,
                    stats: stats_array(&rec)?,
                }))
            }
            t => Err(CodecError::BadValue(format!(
                "unknown WAL record type {t:?}"
            ))),
        }
    }
}

/// An unsigned integer that fits `T`.
fn int<T: TryFrom<u64>>(v: &Value) -> Result<T, CodecError> {
    let n = v.as_u64()?;
    T::try_from(n).map_err(|_| CodecError::BadValue(format!("{n} is out of range")))
}

/// An `f64` written as its `to_bits` word.
fn bits_field(obj: &Value, key: &str) -> Result<f64, CodecError> {
    Ok(f64::from_bits(obj.field(key)?.as_u64()?))
}

/// The array `key` of `obj`, each element mapped by `f`.
fn list<'a, T>(
    obj: &Value<'a>,
    key: &str,
    f: impl Fn(&Value<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    obj.field(key)?.as_array()?.iter().map(f).collect()
}

fn stats_array(obj: &Value) -> Result<[usize; 6], CodecError> {
    let v = list(obj, "stats", int)?;
    v.try_into()
        .map_err(|v: Vec<usize>| CodecError::BadValue(format!("stats arity {}", v.len())))
}

/// Appends `v` in decimal without going through `fmt`, which costs
/// several times as much per integer and dominates `to_line`.
fn push_int(s: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // digits only, always valid UTF-8
    s.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

fn push_usizes(s: &mut String, vs: &[usize]) {
    s.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_int(s, *v as u64);
    }
    s.push(']');
}

fn push_u64s(s: &mut String, vs: &[u64]) {
    s.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_int(s, *v);
    }
    s.push(']');
}

fn push_bools(s: &mut String, vs: &[bool]) {
    s.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push(if *v { '1' } else { '0' });
    }
    s.push(']');
}

fn push_opt_bits(s: &mut String, vs: &[Option<f64>]) {
    s.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match v {
            Some(x) => push_int(s, x.to_bits()),
            None => s.push_str("null"),
        }
    }
    s.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> WalRecord {
        WalRecord::Batch(BatchRecord {
            batch: 3,
            estimates: vec![Some(1.5), None, Some(-0.0)],
            rounds: vec![RoundDelta {
                step: 2.25,
                clients: vec![0, 2],
                ok: vec![true, false],
                evicted: vec![1],
                missed: 1,
                retries: 1,
                abandoned: 0,
                duplicates: 2,
            }],
            partial: true,
            forced: false,
            evaluations: 17,
            live: vec![0, 2],
            serials: vec![4, 1, 3],
            draws: vec![4, 1, 3],
            stats: [1, 1, 0, 2, 1, 1],
        })
    }

    #[test]
    fn batch_round_trips() {
        let rec = sample_batch();
        let line = rec.to_line();
        assert_eq!(WalRecord::from_line(&line).unwrap(), rec);
    }

    #[test]
    fn header_and_exploit_round_trip() {
        let hdr = WalRecord::Header(HeaderRecord {
            version: WAL_VERSION,
            procs: 4,
            max_steps: 60,
            k: 2,
            seed: 42,
            deadline: 25.0,
            max_retries: 2,
            backoff: 1.5,
            quorum: 0.5,
            supervised: true,
        });
        assert_eq!(WalRecord::from_line(&hdr.to_line()).unwrap(), hdr);
        let ex = WalRecord::Exploit(ExploitRecord {
            batch: 9,
            step: f64::NAN,
            pre_evicted: vec![3],
            duplicate: true,
            kind: ExploitKind::Died(2),
            live: vec![0],
            serials: vec![9, 0, 1, 2],
            draws: vec![9, 0, 1, 2],
            stats: [2, 0, 0, 1, 2, 0],
        });
        let back = WalRecord::from_line(&ex.to_line()).unwrap();
        // NaN breaks PartialEq; compare via re-serialisation (bit-exact)
        assert_eq!(back.to_line(), ex.to_line());
    }

    #[test]
    fn corrupt_lines_are_typed_errors() {
        assert!(WalRecord::from_line("").is_err());
        assert!(WalRecord::from_line("{\"t\":\"nope\"}").is_err());
        assert!(WalRecord::from_line("{\"t\":\"batch\"}").is_err());
        assert!(WalRecord::from_line("{\"t\":\"batch\",").is_err());
        let good = sample_batch().to_line();
        assert!(WalRecord::from_line(&good[..good.len() - 2]).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"t\":"] {
            let line = open.repeat(1_000_000);
            assert!(
                matches!(WalRecord::from_line(&line), Err(CodecError::BadValue(_))),
                "{open}"
            );
        }
        // one container past the deepest a record uses
        let line = sample_batch()
            .to_line()
            .replace("\"cl\":[0,2]", "\"cl\":[[0],2]");
        assert!(matches!(
            WalRecord::from_line(&line),
            Err(CodecError::BadValue(_))
        ));
    }

    #[test]
    fn header_integers_past_u32_are_errors() {
        let hdr = WalRecord::Header(HeaderRecord {
            version: WAL_VERSION,
            procs: 4,
            max_steps: 60,
            k: 2,
            seed: 42,
            deadline: 25.0,
            max_retries: 2,
            backoff: 1.5,
            quorum: 0.5,
            supervised: true,
        })
        .to_line();
        for (field, wide) in [
            ("\"v\":1,", "\"v\":4294967297,"),
            ("\"retries\":2,", "\"retries\":4294967298,"),
        ] {
            assert!(hdr.contains(field), "{hdr}");
            let line = hdr.replace(field, wide);
            assert!(
                matches!(WalRecord::from_line(&line), Err(CodecError::BadValue(_))),
                "{line}"
            );
        }
    }

    #[test]
    fn escaped_strings_decode_like_plain_ones() {
        let line = sample_batch().to_line();
        let escaped = line.replace("\"batch\"", "\"b\\u0061tch\"");
        assert_ne!(escaped, line);
        assert_eq!(WalRecord::from_line(&escaped).unwrap(), sample_batch());
        let wide = line.replace("\"b\":3", "\"b\":18446744073709551616");
        assert_ne!(wide, line);
        assert!(matches!(
            WalRecord::from_line(&wide),
            Err(CodecError::BadValue(_))
        ));
    }
}
