//! The session journal: the storage container binding a session's WAL
//! and its periodic snapshots.
//!
//! Two backends share one API: an **in-memory** store (used by tests,
//! which simulate a mid-run kill by truncating it at a batch boundary
//! and resuming from what is left) and a **directory** store
//! (`wal.jsonl` + `snap-<batch>.bin` files) for persistence across real
//! process death. All mutators return `io::Result`; the in-memory
//! backend never fails.

use crate::wal::WalRecord;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// A session's persisted recovery state: an append-only WAL plus the
/// snapshots taken at batch boundaries.
#[derive(Debug, Clone)]
pub struct SessionJournal {
    store: Store,
}

/// One in-memory WAL entry. Typed records are kept as structs, moved in
/// rather than copied, and serialised lazily on read: the append sits
/// on the session hot path, and for a process-memory store eager
/// stringification buys no durability — it only costs the overhead
/// gate its budget. Raw lines come from [`SessionJournal::append_wal`]
/// (tests inject torn lines to exercise recovery).
#[derive(Debug, Clone)]
enum Line {
    Raw(String),
    Rec(WalRecord),
}

impl Line {
    fn render(&self) -> String {
        match self {
            Line::Raw(s) => s.clone(),
            Line::Rec(r) => r.to_line(),
        }
    }

    fn is_header(&self) -> bool {
        match self {
            Line::Raw(s) => raw_is_header(s),
            Line::Rec(r) => matches!(r, WalRecord::Header(_)),
        }
    }

    fn batch_id(&self) -> Option<u64> {
        match self {
            Line::Raw(s) => raw_batch_id(s),
            Line::Rec(WalRecord::Batch(b)) => Some(b.batch),
            Line::Rec(WalRecord::Exploit(e)) => Some(e.batch),
            Line::Rec(WalRecord::Header(_)) => None,
        }
    }
}

fn raw_is_header(line: &str) -> bool {
    line.starts_with("{\"t\":\"hdr\"")
}

fn raw_batch_id(line: &str) -> Option<u64> {
    line.split("\"b\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|b| b.trim().parse::<u64>().ok())
}

/// Appends `line` and its newline to `dir`'s WAL in one write.
fn append_line(dir: &Path, mut line: String) -> io::Result<()> {
    line.push('\n');
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("wal.jsonl"))?
        .write_all(line.as_bytes())
}

#[derive(Debug, Clone)]
enum Store {
    Memory {
        wal: Vec<Line>,
        snapshots: Vec<(u64, Vec<u8>)>,
    },
    Dir(PathBuf),
}

impl SessionJournal {
    /// An in-memory journal (lives and dies with the process; the test
    /// backend).
    pub fn in_memory() -> Self {
        SessionJournal {
            store: Store::Memory {
                wal: Vec::new(),
                snapshots: Vec::new(),
            },
        }
    }

    /// A directory-backed journal at `dir` (created if missing):
    /// `wal.jsonl` plus one `snap-<batch>.bin` per snapshot.
    pub fn at_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SessionJournal {
            store: Store::Dir(dir),
        })
    }

    /// Whether the journal holds no WAL lines (a fresh session).
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.wal_lines()?.is_empty())
    }

    /// Appends one WAL line.
    pub fn append_wal(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'));
        match &mut self.store {
            Store::Memory { wal, .. } => {
                wal.push(Line::Raw(line.to_owned()));
                Ok(())
            }
            Store::Dir(dir) => append_line(dir, line.to_owned()),
        }
    }

    /// Appends one typed WAL record, then hands it to `commit`, so the
    /// record is in the journal before its effect is (write-ahead). The
    /// in-memory backend keeps the record itself and serialises lazily
    /// on read; the directory backend serialises and writes it first —
    /// the write is what makes the record durable there — and runs
    /// `commit` only once the write succeeded.
    pub fn append_record(
        &mut self,
        rec: WalRecord,
        commit: impl FnOnce(&WalRecord),
    ) -> io::Result<()> {
        match &mut self.store {
            Store::Memory { wal, .. } => {
                wal.push(Line::Rec(rec));
                if let Some(Line::Rec(rec)) = wal.last() {
                    commit(rec);
                }
            }
            Store::Dir(dir) => {
                append_line(dir, rec.to_line())?;
                commit(&rec);
            }
        }
        Ok(())
    }

    /// Removes the final WAL line: resume calls this when that line is
    /// torn (a kill mid-append), so the next append starts a line of
    /// its own. Left in place, the torn line would stop being the last
    /// one, and the next resume would refuse it as corruption. The
    /// directory backend shortens the file in one `set_len`, so a kill
    /// during the cut leaves either the torn line or none.
    pub fn cut_torn_tail(&mut self) -> io::Result<()> {
        match &mut self.store {
            Store::Memory { wal, .. } => {
                wal.pop();
                Ok(())
            }
            Store::Dir(dir) => {
                let path = dir.join("wal.jsonl");
                let text = fs::read_to_string(&path)?;
                let body = text.strip_suffix('\n').unwrap_or(&text);
                let keep = body.rfind('\n').map_or(0, |i| i + 1);
                fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(keep as u64)
            }
        }
    }

    /// All WAL lines, in append order.
    pub fn wal_lines(&self) -> io::Result<Vec<String>> {
        match &self.store {
            Store::Memory { wal, .. } => Ok(wal.iter().map(Line::render).collect()),
            Store::Dir(dir) => match fs::read_to_string(dir.join("wal.jsonl")) {
                Ok(text) => Ok(text.lines().map(str::to_owned).collect()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
                Err(e) => Err(e),
            },
        }
    }

    /// Stores the snapshot taken after `batch` committed.
    pub fn put_snapshot(&mut self, batch: u64, bytes: &[u8]) -> io::Result<()> {
        match &mut self.store {
            Store::Memory { snapshots, .. } => {
                snapshots.retain(|(b, _)| *b != batch);
                snapshots.push((batch, bytes.to_vec()));
                Ok(())
            }
            Store::Dir(dir) => fs::write(dir.join(format!("snap-{batch}.bin")), bytes),
        }
    }

    /// The snapshot with the highest batch id, if any.
    pub fn latest_snapshot(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        match &self.store {
            Store::Memory { snapshots, .. } => Ok(snapshots
                .iter()
                .max_by_key(|(b, _)| *b)
                .map(|(b, bytes)| (*b, bytes.clone()))),
            Store::Dir(dir) => {
                let mut best: Option<(u64, PathBuf)> = None;
                for entry in fs::read_dir(dir)? {
                    let path = entry?.path();
                    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    if let Some(batch) = name
                        .strip_prefix("snap-")
                        .and_then(|rest| rest.strip_suffix(".bin"))
                        .and_then(|b| b.parse::<u64>().ok())
                    {
                        if best.as_ref().is_none_or(|(b, _)| batch > *b) {
                            best = Some((batch, path));
                        }
                    }
                }
                match best {
                    Some((batch, path)) => Ok(Some((batch, fs::read(path)?))),
                    None => Ok(None),
                }
            }
        }
    }

    /// Simulates a kill at a batch boundary: keeps the header plus the
    /// first `records` non-header WAL lines and drops any snapshot taken
    /// after the surviving prefix. Returns the number of non-header
    /// records kept.
    pub fn truncate_records(&mut self, records: usize) -> io::Result<usize> {
        match &mut self.store {
            Store::Memory { wal, snapshots } => {
                let mut kept: Vec<Line> = Vec::new();
                let mut non_header = 0usize;
                let mut max_batch = 0u64;
                for line in std::mem::take(wal) {
                    if !line.is_header() {
                        if non_header == records {
                            break;
                        }
                        non_header += 1;
                        if let Some(b) = line.batch_id() {
                            max_batch = max_batch.max(b);
                        }
                    }
                    kept.push(line);
                }
                *wal = kept;
                snapshots.retain(|(b, _)| *b <= max_batch);
                Ok(non_header)
            }
            Store::Dir(dir) => {
                let lines = match fs::read_to_string(dir.join("wal.jsonl")) {
                    Ok(text) => text.lines().map(str::to_owned).collect(),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                    Err(e) => return Err(e),
                };
                let mut kept: Vec<String> = Vec::new();
                let mut non_header = 0usize;
                let mut max_batch = 0u64;
                for line in lines {
                    if !raw_is_header(&line) {
                        if non_header == records {
                            break;
                        }
                        non_header += 1;
                        if let Some(b) = raw_batch_id(&line) {
                            max_batch = max_batch.max(b);
                        }
                    }
                    kept.push(line);
                }
                let mut text = kept.join("\n");
                if !text.is_empty() {
                    text.push('\n');
                }
                fs::write(dir.join("wal.jsonl"), text)?;
                for entry in fs::read_dir(&*dir)? {
                    let path = entry?.path();
                    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    if let Some(batch) = name
                        .strip_prefix("snap-")
                        .and_then(|rest| rest.strip_suffix(".bin"))
                        .and_then(|b| b.parse::<u64>().ok())
                    {
                        if batch > max_batch {
                            fs::remove_file(path)?;
                        }
                    }
                }
                Ok(non_header)
            }
        }
    }

    /// Total serialised size: WAL bytes plus snapshot bytes. Used by the
    /// recovery experiment to report deterministic storage overhead.
    pub fn size_bytes(&self) -> io::Result<(usize, usize)> {
        let wal: usize = self.wal_lines()?.iter().map(|l| l.len() + 1).sum();
        let snaps = match &self.store {
            Store::Memory { snapshots, .. } => snapshots.iter().map(|(_, b)| b.len()).sum(),
            Store::Dir(dir) => {
                let mut total = 0usize;
                for entry in fs::read_dir(dir)? {
                    let path = entry?.path();
                    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    if name.starts_with("snap-") && name.ends_with(".bin") {
                        total += fs::metadata(&path)?.len() as usize;
                    }
                }
                total
            }
        };
        Ok((wal, snaps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(journal: &mut SessionJournal) {
        assert!(journal.is_empty().unwrap());
        journal.append_wal("{\"t\":\"hdr\",\"v\":1}").unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":1}").unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":2}").unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":3}").unwrap();
        journal.put_snapshot(2, b"two").unwrap();
        journal.put_snapshot(3, b"three").unwrap();
        assert_eq!(journal.wal_lines().unwrap().len(), 4);
        let (b, bytes) = journal.latest_snapshot().unwrap().unwrap();
        assert_eq!((b, bytes.as_slice()), (3, b"three".as_slice()));

        // kill after batch 2: batch-3 record and snapshot vanish
        assert_eq!(journal.truncate_records(2).unwrap(), 2);
        let lines = journal.wal_lines().unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"b\":2"));
        let (b, _) = journal.latest_snapshot().unwrap().unwrap();
        assert_eq!(b, 2);
        let (wal_bytes, snap_bytes) = journal.size_bytes().unwrap();
        assert!(wal_bytes > 0 && snap_bytes == 3);
    }

    #[test]
    fn cut_torn_tail_removes_only_the_last_line() {
        let dir = std::env::temp_dir().join(format!("harmony-journal-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let whole = ["{\"t\":\"hdr\",\"v\":1}", "{\"t\":\"batch\",\"b\":1}"];
        for mut journal in [
            SessionJournal::in_memory(),
            SessionJournal::at_dir(&dir).unwrap(),
        ] {
            for line in whole {
                journal.append_wal(line).unwrap();
            }
            journal.append_wal("{\"t\":\"ba").unwrap();
            journal.cut_torn_tail().unwrap();
            journal.append_wal("{\"t\":\"batch\",\"b\":2}").unwrap();
            let lines = journal.wal_lines().unwrap();
            assert_eq!(lines[..2], whole);
            assert_eq!(lines[2], "{\"t\":\"batch\",\"b\":2}");
            assert_eq!(lines.len(), 3);
        }
        // a write cut short on disk leaves no newline after the torn line
        fs::write(
            dir.join("wal.jsonl"),
            format!("{}\n{}", whole[0], "{\"t\":\"ba"),
        )
        .unwrap();
        let mut journal = SessionJournal::at_dir(&dir).unwrap();
        journal.cut_torn_tail().unwrap();
        journal.append_wal(whole[1]).unwrap();
        assert_eq!(journal.wal_lines().unwrap(), whole);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_backend() {
        exercise(&mut SessionJournal::in_memory());
    }

    #[test]
    fn dir_backend() {
        let dir = std::env::temp_dir().join(format!("harmony-journal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        exercise(&mut SessionJournal::at_dir(&dir).unwrap());
        // a reopened journal sees the same state
        let reopened = SessionJournal::at_dir(&dir).unwrap();
        assert_eq!(reopened.wal_lines().unwrap().len(), 3);
        assert_eq!(reopened.latest_snapshot().unwrap().unwrap().0, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
