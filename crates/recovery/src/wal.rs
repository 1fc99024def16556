//! The write-ahead observation log (WAL): one JSONL record per
//! committed server batch (and per exploit step), carrying everything
//! needed to *re-apply* the batch to the optimizer and to *re-emit* its
//! telemetry without touching clients or the objective.
//!
//! Records are valid single-line JSON, but the schema is fixed and the
//! parser is a minimal hand-rolled subset (objects, arrays, unsigned
//! integers, strings, `null`, booleans) — no serde exists in this build.
//! Floats travel as their `f64::to_bits` words rendered as decimal
//! `u64`s, so replay is bit-exact; `null` encodes an absent estimate.

use crate::codec::CodecError;
use std::collections::HashMap;
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
    /// numbers go through `push_int` instead of `fmt` — the overhead
    /// gate (`recovery_overhead`) budgets the whole write at ~5% of a
    /// synthetic sub-millisecond session.
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
        let v = Val::parse(line)?;
        let obj = v.obj()?;
        match obj.str_field("t")?.as_str() {
            "hdr" => Ok(WalRecord::Header(HeaderRecord {
                version: obj.u32_field("v")?,
                procs: obj.usize_field("procs")?,
                max_steps: obj.usize_field("steps")?,
                k: obj.usize_field("k")?,
                seed: obj.u64_field("seed")?,
                deadline: f64::from_bits(obj.u64_field("deadline")?),
                max_retries: obj.u32_field("retries")?,
                backoff: f64::from_bits(obj.u64_field("backoff")?),
                quorum: f64::from_bits(obj.u64_field("quorum")?),
                supervised: obj.u64_field("sup")? != 0,
            })),
            "batch" => {
                let mut rounds = Vec::new();
                for rv in obj.arr_field("rounds")? {
                    let r = rv.obj()?;
                    rounds.push(RoundDelta {
                        step: f64::from_bits(r.u64_field("s")?),
                        clients: r.usize_vec_field("cl")?,
                        ok: r
                            .arr_field("ok")?
                            .iter()
                            .map(|v| Ok(v.u64()? != 0))
                            .collect::<Result<_, CodecError>>()?,
                        evicted: r.usize_vec_field("ev")?,
                        missed: r.usize_field("miss")?,
                        retries: r.usize_field("retry")?,
                        abandoned: r.usize_field("aband")?,
                        duplicates: r.usize_field("dup")?,
                    });
                }
                Ok(WalRecord::Batch(BatchRecord {
                    batch: obj.u64_field("b")?,
                    estimates: obj
                        .arr_field("est")?
                        .iter()
                        .map(|v| match v {
                            Val::Null => Ok(None),
                            other => Ok(Some(f64::from_bits(other.u64()?))),
                        })
                        .collect::<Result<_, CodecError>>()?,
                    rounds,
                    partial: obj.u64_field("partial")? != 0,
                    forced: obj.u64_field("forced")? != 0,
                    evaluations: obj.usize_field("evals")?,
                    live: obj.usize_vec_field("live")?,
                    serials: obj.usize_vec_field("ser")?,
                    draws: obj
                        .arr_field("draws")?
                        .iter()
                        .map(Val::u64)
                        .collect::<Result<_, CodecError>>()?,
                    stats: stats_array(obj)?,
                }))
            }
            "exploit" => {
                let kind = match (obj.u64_field("kind")?, obj.field("dc")?) {
                    (0, _) => ExploitKind::OnTime,
                    (1, _) => ExploitKind::Late,
                    (2, _) => ExploitKind::Lost,
                    (3, Val::Num(c)) => ExploitKind::Died(*c as usize),
                    (k, _) => return Err(CodecError::BadValue(format!("bad exploit kind {k}"))),
                };
                Ok(WalRecord::Exploit(ExploitRecord {
                    batch: obj.u64_field("b")?,
                    step: f64::from_bits(obj.u64_field("s")?),
                    pre_evicted: obj.usize_vec_field("pe")?,
                    duplicate: obj.u64_field("dup")? != 0,
                    kind,
                    live: obj.usize_vec_field("live")?,
                    serials: obj.usize_vec_field("ser")?,
                    draws: obj
                        .arr_field("draws")?
                        .iter()
                        .map(Val::u64)
                        .collect::<Result<_, CodecError>>()?,
                    stats: stats_array(obj)?,
                }))
            }
            t => Err(CodecError::BadValue(format!(
                "unknown WAL record type {t:?}"
            ))),
        }
    }
}

fn stats_array(obj: &Obj) -> Result<[usize; 6], CodecError> {
    let v = obj.usize_vec_field("stats")?;
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

/// How deep WAL records nest containers: record object → `rounds` array
/// → round object → `cl` array. The decoder refuses deeper input instead
/// of recursing once per bracket of a corrupt line.
const MAX_NESTING: usize = 4;

/// The minimal JSON value subset WAL records use.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Obj),
}

#[derive(Debug, Clone, PartialEq, Default)]
struct Obj {
    fields: HashMap<String, Val>,
}

impl Obj {
    fn field(&self, key: &str) -> Result<&Val, CodecError> {
        self.fields
            .get(key)
            .ok_or_else(|| CodecError::BadValue(format!("missing WAL field {key:?}")))
    }
    fn u64_field(&self, key: &str) -> Result<u64, CodecError> {
        self.field(key)?.u64()
    }
    fn u32_field(&self, key: &str) -> Result<u32, CodecError> {
        let v = self.u64_field(key)?;
        u32::try_from(v)
            .map_err(|_| CodecError::BadValue(format!("field {key:?} overflows u32: {v}")))
    }
    fn usize_field(&self, key: &str) -> Result<usize, CodecError> {
        Ok(self.u64_field(key)? as usize)
    }
    fn str_field(&self, key: &str) -> Result<String, CodecError> {
        match self.field(key)? {
            Val::Str(s) => Ok(s.clone()),
            other => Err(CodecError::BadValue(format!(
                "field {key:?} not a string: {other:?}"
            ))),
        }
    }
    fn arr_field(&self, key: &str) -> Result<&[Val], CodecError> {
        match self.field(key)? {
            Val::Arr(vs) => Ok(vs),
            other => Err(CodecError::BadValue(format!(
                "field {key:?} not an array: {other:?}"
            ))),
        }
    }
    fn usize_vec_field(&self, key: &str) -> Result<Vec<usize>, CodecError> {
        self.arr_field(key)?
            .iter()
            .map(|v| Ok(v.u64()? as usize))
            .collect()
    }
}

impl Val {
    fn u64(&self) -> Result<u64, CodecError> {
        match self {
            Val::Num(n) => Ok(*n),
            other => Err(CodecError::BadValue(format!(
                "expected number, got {other:?}"
            ))),
        }
    }

    fn obj(&self) -> Result<&Obj, CodecError> {
        match self {
            Val::Obj(o) => Ok(o),
            other => Err(CodecError::BadValue(format!(
                "expected object, got {other:?}"
            ))),
        }
    }

    fn parse(s: &str) -> Result<Val, CodecError> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = Self::parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(CodecError::BadValue(format!("trailing JSON at byte {pos}")));
        }
        Ok(v)
    }

    /// Parses the value at `pos`, inside `depth` open containers.
    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Val, CodecError> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err(CodecError::UnexpectedEof),
            Some(b'{' | b'[') if depth == MAX_NESTING => Err(CodecError::BadValue(format!(
                "JSON nested deeper than {MAX_NESTING} containers at byte {pos}"
            ))),
            Some(b'{') => {
                *pos += 1;
                let mut obj = Obj::default();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Val::Obj(obj));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match Self::parse_value(b, pos, depth + 1)? {
                        Val::Str(s) => s,
                        other => {
                            return Err(CodecError::BadValue(format!(
                                "object key not a string: {other:?}"
                            )))
                        }
                    };
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    let val = Self::parse_value(b, pos, depth + 1)?;
                    obj.fields.insert(key, val);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Val::Obj(obj));
                        }
                        _ => return Err(CodecError::BadValue("unterminated object".into())),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut arr = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Val::Arr(arr));
                }
                loop {
                    arr.push(Self::parse_value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Val::Arr(arr));
                        }
                        _ => return Err(CodecError::BadValue("unterminated array".into())),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let start = *pos;
                while let Some(&c) = b.get(*pos) {
                    if c == b'"' {
                        let raw = &b[start..*pos];
                        *pos += 1;
                        let s = std::str::from_utf8(raw)
                            .map_err(|_| CodecError::BadValue("non-UTF-8 JSON string".into()))?;
                        // WAL strings are plain identifiers; escapes unsupported
                        if s.contains('\\') {
                            return Err(CodecError::BadValue("escaped JSON string".into()));
                        }
                        return Ok(Val::Str(s.to_owned()));
                    }
                    *pos += 1;
                }
                Err(CodecError::UnexpectedEof)
            }
            Some(b'n') => {
                expect_word(b, pos, b"null")?;
                Ok(Val::Null)
            }
            Some(b't') => {
                expect_word(b, pos, b"true")?;
                Ok(Val::Num(1))
            }
            Some(b'f') => {
                expect_word(b, pos, b"false")?;
                Ok(Val::Num(0))
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *pos;
                while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                let raw = std::str::from_utf8(&b[start..*pos]).unwrap();
                raw.parse::<u64>()
                    .map(Val::Num)
                    .map_err(|_| CodecError::BadValue(format!("bad number {raw:?}")))
            }
            Some(&c) => Err(CodecError::BadValue(format!(
                "unexpected JSON byte {:?}",
                c as char
            ))),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), CodecError> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(CodecError::BadValue(format!("expected {:?}", c as char)))
    }
}

fn expect_word(b: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), CodecError> {
    if b.len() - *pos >= word.len() && &b[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(())
    } else {
        Err(CodecError::BadValue("bad JSON literal".into()))
    }
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
}
