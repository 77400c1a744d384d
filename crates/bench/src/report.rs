//! Plain-text and CSV rendering of experiment results.

use std::fmt::Write as _;

/// A rectangular result table: one row per workload (plus category-average
/// rows), one column per configuration, matching the layout of the paper's
/// figures.
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
        let col = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().find(|(label, _)| label == row)?;
        row.1.get(col).copied()
    }

    /// Renders the table as aligned plain text; a table of replicate means
    /// prints each cell as `mean +/- ci95`.
    #[must_use]
    pub fn to_text(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, (_, values))| {
                let ci = self.ci95.get(i);
                let cell = |(c, v): (usize, &f64)| match ci {
                    Some(ci) => format!("{v:.3} +/- {:.3}", ci[c]),
                    None => format!("{v:.3}"),
                };
                values.iter().enumerate().map(cell).collect()
            })
            .collect();
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once("workload".len()))
            .max()
            .unwrap_or(8)
            + 2;
        let col_width = self
            .columns
            .iter()
            .chain(cells.iter().flatten())
            .map(String::len)
            .max()
            .unwrap_or(8)
            .max(9)
            + 2;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        if !self.note.is_empty() {
            let _ = writeln!(out, "# {}", self.note);
        }
        let _ = write!(out, "{:<label_width$}", "workload");
        for c in &self.columns {
            let _ = write!(out, "{c:>col_width$}");
        }
        let _ = writeln!(out);
        for ((label, _), row) in self.rows.iter().zip(&cells) {
            let _ = write!(out, "{label:<label_width$}");
            for cell in row {
                let _ = write!(out, "{cell:>col_width$}");
            }
            let _ = writeln!(out);
        }
        out
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

    /// Renders as aligned plain text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once("workload".len()))
            .max()
            .unwrap_or(8)
            + 2;
        let col_width = self
            .rows
            .iter()
            .flat_map(|(_, vs)| vs.iter().map(String::len))
            .chain(self.columns.iter().map(String::len))
            .max()
            .unwrap_or(10)
            + 2;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:<label_width$}", "workload");
        for c in &self.columns {
            let _ = write!(out, "{c:>col_width$}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<label_width$}");
            for v in values {
                let _ = write!(out, "{v:>col_width$}");
            }
            let _ = writeln!(out);
        }
        out
    }
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
}
