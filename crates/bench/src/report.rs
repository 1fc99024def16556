//! CSV emission, aligned-table printing and the trace-reader command
//! line for the experiment binaries.

use harmony_telemetry::{Telemetry, TraceError};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A rectangular results table (header + float rows) that can be printed
/// aligned to stdout and saved as CSV under `results/`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (becomes the CSV file stem).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
    /// Optional per-row labels (e.g. algorithm names); when non-empty a
    /// leading label column is rendered.
    pub labels: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header or the table
    /// already has labeled rows.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        assert!(self.labels.is_empty(), "mixing labeled and unlabeled rows");
        self.rows.push(row);
    }

    /// Appends a labeled row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header or unlabeled
    /// rows already exist.
    pub fn push_labeled(&mut self, label: impl Into<String>, row: Vec<f64>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        assert_eq!(
            self.labels.len(),
            self.rows.len(),
            "mixing labeled and unlabeled rows"
        );
        self.labels.push(label.into());
        self.rows.push(row);
    }

    /// Renders the table aligned for terminals.
    pub fn render(&self) -> String {
        let labeled = !self.labels.is_empty();
        let mut head = Vec::new();
        if labeled {
            head.push("case".to_string());
        }
        head.extend(self.header.clone());
        let mut cells: Vec<Vec<String>> = vec![head];
        for (i, row) in self.rows.iter().enumerate() {
            let mut r = Vec::new();
            if labeled {
                r.push(self.labels[i].clone());
            }
            r.extend(row.iter().map(|v| format_num(*v)));
            cells.push(r);
        }
        let widths: Vec<usize> = (0..cells[0].len())
            .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        for (i, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
            if i == 0 {
                let _ = writeln!(
                    out,
                    "{}",
                    "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
                );
            }
        }
        out
    }

    /// CSV serialisation (label column first when rows are labeled).
    pub fn to_csv(&self) -> String {
        let labeled = !self.labels.is_empty();
        let mut out = String::new();
        if labeled {
            out.push_str("case,");
        }
        out.push_str(&self.header.join(","));
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            if labeled {
                out.push_str(&self.labels[i]);
                out.push(',');
            }
            let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `dir/<title>.csv` (creating the directory)
    /// and returns the path.
    pub fn save_csv(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.title.replace(' ', "_")));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// Compact numeric formatting: integers plain, floats with 4 significant
/// decimals.
fn format_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// The default output directory for experiment CSVs: `$HARMONY_RESULTS`
/// or `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("HARMONY_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// The `trace_summary`/`trace_profile` command line: renders each JSONL
/// trace named in the arguments with `render` under a `=== PATH ===`
/// header. Exits 2 without arguments or on `--help`, 1 when any file
/// cannot be read or parsed.
pub fn trace_cli(tool: &str, render: impl Fn(&str) -> Result<String, TraceError>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: {tool} PATH.jsonl [PATH2.jsonl ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &args {
        match fs::read_to_string(path).map(|text| render(&text)) {
            Ok(Ok(out)) => {
                println!("=== {path} ===");
                print!("{out}");
            }
            Ok(Err(e)) => {
                eprintln!("{path}: parse error: {e}");
                failed = true;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Row count above which [`emit_table_telemetry`] switches from
/// per-cell gauges to per-column means (dense series tables would bloat
/// the trace without adding information the CSV doesn't carry).
const TELEMETRY_CELL_LIMIT: usize = 100;

/// Exports a table's numbers through the telemetry gauge API, so table
/// metrics and live tuning sessions flow through one metrics path.
///
/// Small tables (≤ 100 rows) emit one gauge per cell, named
/// `{title}.{label}.{column}` (the row index stands in for the label on
/// unlabeled tables); larger tables emit a `table.summary` event plus
/// one per-column mean gauge.
pub fn emit_table_telemetry(tel: &Telemetry, table: &Table) {
    if !tel.enabled() {
        return;
    }
    let stem = table.title.replace(' ', "_");
    if table.rows.len() <= TELEMETRY_CELL_LIMIT {
        for (i, row) in table.rows.iter().enumerate() {
            let label = table
                .labels
                .get(i)
                .map_or_else(|| i.to_string(), |l| l.replace(' ', "_"));
            for (col, v) in table.header.iter().zip(row) {
                tel.gauge(&format!("{stem}.{label}.{col}"), *v);
            }
        }
    } else {
        tel.event(
            "table.summary",
            vec![
                harmony_telemetry::Field::new("table", stem.clone()),
                harmony_telemetry::Field::new("rows", table.rows.len()),
                harmony_telemetry::Field::new("cols", table.header.len()),
            ],
        );
        for (c, col) in table.header.iter().enumerate() {
            let mean =
                table.rows.iter().map(|r| r[c]).sum::<f64>() / table.rows.len().max(1) as f64;
            tel.gauge(&format!("{stem}.mean.{col}"), mean);
        }
    }
}

/// Renders the table into `buf` and saves its CSV under `dir`,
/// reporting the file path — used by the parallel harness, where every
/// task renders into its own buffer and the buffers are printed in
/// canonical task order after the pool joins.
pub fn emit_to(buf: &mut String, dir: &Path, table: &Table) {
    buf.push_str(&table.render());
    match table.save_csv(dir) {
        Ok(path) => {
            let _ = writeln!(buf, "[csv] {}\n", path.display());
        }
        Err(e) => {
            let _ = writeln!(buf, "[csv] write failed: {e}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("unit test table", &["a", "b"]);
        t.push(vec![1.0, 2.5]);
        t.push(vec![10.0, 0.125]);
        t
    }

    #[test]
    fn render_contains_all_cells() {
        let r = sample().render();
        for needle in ["unit test table", "a", "b", "1", "2.5000", "10", "0.1250"] {
            assert!(r.contains(needle), "missing {needle} in\n{r}");
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2.5");
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join("harmony_report_test");
        let path = sample().save_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_rejected() {
        let mut t = Table::new("t", &["a"]);
        t.push(vec![1.0, 2.0]);
    }

    #[test]
    fn labeled_rows_render_and_serialise() {
        let mut t = Table::new("algos", &["total", "best"]);
        t.push_labeled("pro", vec![10.0, 2.0]);
        t.push_labeled("nelder-mead", vec![15.0, 2.5]);
        let r = t.render();
        assert!(r.contains("case") && r.contains("pro") && r.contains("nelder-mead"));
        let csv = t.to_csv();
        assert!(csv.starts_with("case,total,best"));
        assert!(csv.contains("pro,10,2"));
    }

    #[test]
    #[should_panic(expected = "mixing labeled and unlabeled")]
    fn mixing_row_kinds_rejected() {
        let mut t = Table::new("t", &["a"]);
        t.push_labeled("x", vec![1.0]);
        t.push(vec![2.0]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_num(3.0), "3");
        assert_eq!(format_num(1.23456), "1.2346");
        assert_eq!(format_num(-2.0), "-2");
    }

    #[test]
    fn small_table_exports_per_cell_gauges() {
        let mut t = Table::new("tiny table", &["total", "best"]);
        t.push_labeled("pro", vec![10.0, 2.0]);
        let (tel, sink) = Telemetry::memory();
        emit_table_telemetry(&tel, &t);
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.gauge_last("tiny_table.pro.total"), Some(10.0));
        assert_eq!(summary.gauge_last("tiny_table.pro.best"), Some(2.0));
    }

    #[test]
    fn large_table_exports_column_means() {
        let mut t = Table::new("big", &["v"]);
        for i in 0..200 {
            t.push(vec![i as f64]);
        }
        let (tel, sink) = Telemetry::memory();
        emit_table_telemetry(&tel, &t);
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.event_count("table.summary"), Some(1));
        assert_eq!(summary.gauge_last("big.mean.v"), Some(99.5));
        assert_eq!(summary.gauge_last("big.0.v"), None);
    }
}
