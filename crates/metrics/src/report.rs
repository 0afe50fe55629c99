//! Experiment records: labelled rows of named values.
//!
//! Every figure/table binary in `specasr-bench` produces one
//! [`ExperimentRecord`]: a set of rows (one per configuration or series
//! point), each carrying named numeric values.  The record renders as an
//! aligned text table for the console and serialises to JSON under
//! `target/experiments/` so that `EXPERIMENTS.md` can be regenerated and
//! diffed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// One row of an experiment record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportRow {
    /// Row label (e.g. a policy name or a parameter setting).
    pub label: String,
    /// Named numeric values; `BTreeMap` keeps the column order stable.
    pub values: BTreeMap<String, f64>,
}

impl ReportRow {
    /// Creates an empty row with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        ReportRow {
            label: label.into(),
            values: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a named value, returning `self` for chaining.
    pub fn with(mut self, key: impl Into<String>, value: f64) -> Self {
        self.values.insert(key.into(), value);
        self
    }

    /// Reads a named value, if present.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }
}

/// A complete experiment result (one paper figure or table).
///
/// # Example
///
/// ```
/// use specasr_metrics::{ExperimentRecord, ReportRow};
///
/// let record = ExperimentRecord::new("fig11a", "Speedup on test-clean")
///     .with_row(ReportRow::new("autoregressive").with("speedup", 1.0))
///     .with_row(ReportRow::new("specasr-tsp").with("speedup", 3.4));
/// let table = record.to_table();
/// assert!(table.contains("specasr-tsp"));
/// assert!(record.row("autoregressive").is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Short experiment id (e.g. `fig11a`, `tab02`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Result rows.
    pub rows: Vec<ReportRow>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentRecord {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, returning `self` for chaining.
    pub fn with_row(mut self, row: ReportRow) -> Self {
        self.rows.push(row);
        self
    }

    /// Appends a row in place.
    pub fn push_row(&mut self, row: ReportRow) {
        self.rows.push(row);
    }

    /// Finds a row by label.
    pub fn row(&self, label: &str) -> Option<&ReportRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// All column names appearing in any row, in stable (sorted) order.
    pub fn columns(&self) -> Vec<String> {
        let mut columns: Vec<String> = self
            .rows
            .iter()
            .flat_map(|r| r.values.keys().cloned())
            .collect();
        columns.sort();
        columns.dedup();
        columns
    }

    /// Renders the record as an aligned text table.
    pub fn to_table(&self) -> String {
        let columns = self.columns();
        let mut label_width = self.rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
        label_width = label_width.max("configuration".len());
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let mut header = format!("{:<label_width$}", "configuration");
        for column in &columns {
            let _ = write!(header, "  {column:>12}");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = write!(out, "{:<label_width$}", row.label);
            for column in &columns {
                match row.value(column) {
                    Some(value) => {
                        let _ = write!(out, "  {value:>12.4}");
                    }
                    None => {
                        let _ = write!(out, "  {:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialises the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("experiment records are always serialisable")
    }

    /// Writes the JSON record to `<directory>/<id>.json`, creating the
    /// directory if needed, and returns the written path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the file.
    pub fn write_json(&self, directory: impl AsRef<Path>) -> io::Result<PathBuf> {
        let directory = directory.as_ref();
        fs::create_dir_all(directory)?;
        let path = directory.join(format!("{}.json", self.id));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ExperimentRecord {
        ExperimentRecord::new("tab02", "Ablation on test-clean")
            .with_row(
                ReportRow::new("baseline speculative")
                    .with("draft_ms", 231.06)
                    .with("target_ms", 254.48),
            )
            .with_row(
                ReportRow::new("+ adaptive single-sequence")
                    .with("draft_ms", 236.23)
                    .with("target_ms", 191.20),
            )
    }

    #[test]
    fn rows_and_values_round_trip() {
        let record = sample_record();
        assert_eq!(record.rows.len(), 2);
        let row = record.row("baseline speculative").expect("row exists");
        assert_eq!(row.value("draft_ms"), Some(231.06));
        assert_eq!(row.value("missing"), None);
        assert!(record.row("unknown").is_none());
    }

    #[test]
    fn columns_are_sorted_and_deduplicated() {
        let record = sample_record();
        assert_eq!(
            record.columns(),
            vec!["draft_ms".to_owned(), "target_ms".to_owned()]
        );
    }

    #[test]
    fn table_contains_every_label_and_column() {
        let table = sample_record().to_table();
        assert!(table.contains("tab02"));
        assert!(table.contains("baseline speculative"));
        assert!(table.contains("draft_ms"));
        assert!(table.contains("254.4800"));
    }

    #[test]
    fn missing_values_render_as_dashes() {
        let record = ExperimentRecord::new("x", "t")
            .with_row(ReportRow::new("a").with("col1", 1.0))
            .with_row(ReportRow::new("b").with("col2", 2.0));
        let table = record.to_table();
        assert!(table.contains('-'));
    }

    #[test]
    fn json_round_trips() {
        let record = sample_record();
        let json = record.to_json();
        let parsed: ExperimentRecord = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed, record);
    }

    #[test]
    fn write_json_creates_the_file() {
        let dir = std::env::temp_dir().join(format!("specasr-report-test-{}", std::process::id()));
        let path = sample_record().write_json(&dir).expect("write succeeds");
        assert!(path.exists());
        let content = std::fs::read_to_string(&path).expect("readable");
        assert!(content.contains("Ablation"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
