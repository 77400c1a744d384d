//! The one shape every study reports in, and its renderers.
//!
//! A study ends in a [`Report`]: its [`Table`]s — labelled rows, one value
//! per column, read back with [`Table::value`] — plus the measured
//! [`SimStats`] of every point it ran. `repro` prints each table as aligned
//! text ([`Table::to_text`]), writes it as CSV with `--csv`
//! ([`Table::to_csv`]), and writes a `BENCH_*.json` study as
//! [`Report::to_json`]: `{"meta", "benchmark", "tables": [{title, note,
//! columns, rows: [{label, values}]}], "points": [{label, stats}]}`.

use std::fmt::Write as _;

use cloudmc_sim::{json_escape, SimStats};

use crate::meta::RunMeta;

/// A rectangular result table of labelled rows, one value per named column:
/// for a paper figure a row per workload (plus category-average rows) and a
/// column per configuration; for an extension study a row per policy or
/// point and a column per metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title, e.g. "Figure 1: User IPC normalized to FR-FCFS".
    pub title: String,
    /// Column headers (configuration labels).
    pub columns: Vec<String>,
    /// Rows: (label, one value per column; the mean when the table
    /// aggregates replicates).
    pub rows: Vec<(String, Vec<f64>)>,
    /// 95% confidence half-widths, one row per entry of `rows`, when the
    /// table aggregates replicates; empty otherwise.
    pub ci95: Vec<Vec<f64>>,
    /// Free-text note on how to read the table (expected shape, units).
    pub note: String,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
            ci95: Vec::new(),
            note: String::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the number of values differs from the number of columns.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.into(), values));
    }

    /// Appends one row of means with their 95% confidence half-widths (a
    /// table takes this or [`Table::push_row`] for every row).
    ///
    /// # Panics
    ///
    /// Panics if either width differs from the number of columns.
    pub fn push_row_with_ci(&mut self, label: impl Into<String>, means: Vec<f64>, ci95: Vec<f64>) {
        assert_eq!(
            ci95.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.push_row(label, means);
        self.ci95.push(ci95);
    }

    /// Looks up a value by row label and column label.
    #[must_use]
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        self.cell(row, column).map(|(value, _)| value)
    }

    /// A cell's value and 95% confidence half-width (0 when the table
    /// holds one replicate), by row label and column label.
    #[must_use]
    pub fn cell(&self, row: &str, column: &str) -> Option<(f64, f64)> {
        let col = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().position(|(label, _)| label == row)?;
        let ci95 = self.ci95.get(row).and_then(|ci| ci.get(col));
        Some((*self.rows[row].1.get(col)?, ci95.copied().unwrap_or(0.0)))
    }

    /// Renders the table as aligned plain text; a table of replicate means
    /// prints each cell as `mean +/- ci95`.
    #[must_use]
    pub fn to_text(&self) -> String {
        let rows: Vec<(String, Vec<String>)> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, (label, values))| {
                let ci = self.ci95.get(i);
                let cell = |(c, v): (usize, &f64)| match ci {
                    Some(ci) => format!("{v:.3} +/- {:.3}", ci[c]),
                    None => format!("{v:.3}"),
                };
                (label.clone(), values.iter().enumerate().map(cell).collect())
            })
            .collect();
        layout(&self.title, &self.note, &self.columns, &rows)
    }

    /// Renders the table as CSV (header row plus one line per row); a table
    /// of replicate means writes the means.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "workload");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label}");
            for v in values {
                let _ = write!(out, ",{v:.6}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The table as one JSON object, indented as an element of the
    /// report's `tables` array; a table of replicate means writes the means.
    fn to_json(&self) -> String {
        let columns: Vec<String> = self.columns.iter().map(|c| quoted(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(label, values)| {
                format!(
                    "      {{\"label\": {}, \"values\": [{}]}}",
                    quoted(label),
                    numbers(values)
                )
            })
            .collect();
        format!(
            "    {{\"title\": {}, \"note\": {}, \"columns\": [{}], \"rows\": [{}]}}",
            quoted(&self.title),
            quoted(&self.note),
            columns.join(", "),
            lines(&rows, "    ")
        )
    }
}

/// What a study returns: its tables, and the measured statistics of every
/// point it ran under the label the sweep gave it.
#[derive(Debug, Clone)]
pub struct Report {
    /// The study's tables, in print order.
    pub tables: Vec<Table>,
    /// `(label, statistics)` per simulated point, in sweep order; empty for
    /// a study whose tables hold everything it measured.
    pub points: Vec<(String, SimStats)>,
}

impl Report {
    /// The table whose title starts with `name` followed by `:`.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| {
            t.title
                .strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(':'))
        })
    }

    /// The `BENCH_*.json` document: the provenance block, the study name,
    /// every table and every point. Values are written exactly (`f64`
    /// `Display`); a non-finite value, which JSON cannot hold, is `null`.
    #[must_use]
    pub fn to_json(&self, meta: &RunMeta, benchmark: &str) -> String {
        let tables: Vec<String> = self.tables.iter().map(Table::to_json).collect();
        let points: Vec<String> = self
            .points
            .iter()
            .map(|(label, stats)| {
                format!(
                    "    {{\"label\": {}, \"stats\": {}}}",
                    quoted(label),
                    stats.to_json()
                )
            })
            .collect();
        format!(
            "{{\n  {},\n  \"benchmark\": {},\n  \"tables\": [{}],\n  \"points\": [{}]\n}}\n",
            meta.to_json(),
            quoted(benchmark),
            lines(&tables, "  "),
            lines(&points, "  ")
        )
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// `values` as the inside of a JSON array, `null` for a non-finite value.
fn numbers(values: &[f64]) -> String {
    let number = |v: &f64| {
        if v.is_finite() {
            v.to_string()
        } else {
            "null".to_owned()
        }
    };
    values.iter().map(number).collect::<Vec<_>>().join(", ")
}

/// The inside of a JSON array of `items`, one per line, the closing bracket
/// indented by `indent`; nothing for no items.
fn lines(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        String::new()
    } else {
        format!("\n{}\n{indent}", items.join(",\n"))
    }
}

/// A table of strings (used for Table 4, the best mapping per workload).
#[derive(Debug, Clone, PartialEq)]
pub struct TextTable {
    /// Title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows: (label, one string per column).
    pub rows: Vec<(String, Vec<String>)>,
}

impl TextTable {
    /// Creates an empty text table.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the number of values differs from the number of columns.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<String>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push((label.into(), values));
    }

    /// Renders as aligned plain text, laid out as [`Table::to_text`].
    #[must_use]
    pub fn to_text(&self) -> String {
        layout(&self.title, "", &self.columns, &self.rows)
    }
}

/// Aligned plain text for both table types: `# title` (and `# note`), a
/// header row, then one line per row — labels left-aligned, each column's
/// cells right-aligned in that column's width: its widest header or cell (at
/// least nine characters).
fn layout(title: &str, note: &str, columns: &[String], rows: &[(String, Vec<String>)]) -> String {
    let label_width = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once("workload".len()))
        .max()
        .unwrap_or(8)
        + 2;
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .map(|(_, cells)| cells.get(i).map_or(0, String::len))
                .fold(c.len().max(9), usize::max)
                + 2
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    if !note.is_empty() {
        let _ = writeln!(out, "# {note}");
    }
    let _ = write!(out, "{:<label_width$}", "workload");
    for (c, width) in columns.iter().zip(&widths) {
        let _ = write!(out, "{c:>width$}");
    }
    let _ = writeln!(out);
    for (label, cells) in rows {
        let _ = write!(out, "{label:<label_width$}");
        for (cell, width) in cells.iter().zip(&widths) {
            let _ = write!(out, "{cell:>width$}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Figure X", vec!["A".to_owned(), "B".to_owned()]);
        t.push_row("DS", vec![1.0, 0.5]);
        t.push_row("MR", vec![0.25, 2.0]);
        t.note = "higher is better".to_owned();
        t
    }

    #[test]
    fn text_rendering_contains_all_cells() {
        let text = sample().to_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("higher is better"));
        assert!(text.contains("DS"));
        assert!(text.contains("2.000"));
        assert!(text.contains("0.250"));
    }

    #[test]
    fn csv_rendering_is_parseable() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "workload,A,B");
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(row[0], "DS");
        assert!((row[1].parse::<f64>().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn replicate_means_render_with_intervals() {
        let mut t = Table::new("Figure X", vec!["A".to_owned()]);
        t.push_row_with_ci("DS", vec![1.0], vec![0.25]);
        let text = t.to_text();
        assert!(text.contains("1.000 +/- 0.250"), "{text}");
        assert_eq!(t.to_csv(), "workload,A\nDS,1.000000\n");
        assert_eq!(t.value("DS", "A"), Some(1.0));
    }

    #[test]
    fn value_lookup_by_labels() {
        let t = sample();
        assert_eq!(t.value("MR", "B"), Some(2.0));
        assert_eq!(t.value("MR", "C"), None);
        assert_eq!(t.value("XX", "A"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = sample();
        t.push_row("bad", vec![1.0]);
    }

    #[test]
    fn text_table_renders() {
        let mut t = TextTable::new("Table 4", vec!["2-channel".to_owned()]);
        t.push_row("DS", vec!["RoRaBaChCo".to_owned()]);
        let text = t.to_text();
        assert!(text.contains("Table 4"));
        assert!(text.contains("RoRaBaChCo"));
    }

    #[test]
    fn json_carries_one_meta_block_and_no_non_finite_token() {
        let mut t = Table::new("study x: cells", vec!["A".to_owned(), "B".to_owned()]);
        t.push_row("finite", vec![0.1, 1200.0]);
        t.push_row("broken", vec![f64::INFINITY, f64::NAN]);
        let report = Report {
            tables: vec![t],
            points: Vec::new(),
        };
        let json = report.to_json(&RunMeta::collect("quick", Some("v1")), "x");
        assert!(json.starts_with("{\n  \"meta\": {"), "{json}");
        assert!(json.contains("\"git_describe\": \"v1\""), "{json}");
        assert!(json.contains("\"benchmark\": \"x\""), "{json}");
        // Exactly one meta block and balanced braces.
        assert_eq!(json.matches("\"meta\"").count(), 1);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces must stay balanced: {json}"
        );
        // Exact values, and `null` where JSON has no number.
        assert!(
            json.contains("{\"label\": \"finite\", \"values\": [0.1, 1200]}"),
            "{json}"
        );
        assert!(
            json.contains("{\"label\": \"broken\", \"values\": [null, null]}"),
            "{json}"
        );
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
        assert!(json.contains("\"points\": []"), "{json}");
        let table = report.table("study x").expect("table by name");
        assert_eq!(table.value("broken", "A"), Some(f64::INFINITY));
        assert!(report.table("study").is_none());
    }
}
