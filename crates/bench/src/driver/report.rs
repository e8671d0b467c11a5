//! The experiment report model.
//!
//! Every experiment produces a [`Report`] — a titled set of named
//! [`Table`]s plus free-form notes — instead of printing ad-hoc text.
//! One report renders to all the output formats the `cac` CLI offers:
//!
//! * [`Report::to_text`] — aligned human-readable tables;
//! * [`Report::to_json`] — a machine-readable document for dashboards
//!   and regression tooling;
//! * [`Report::to_csv`] — flat rows for spreadsheets and plotting.
//!
//! # Example
//!
//! ```
//! use cac_bench::driver::report::{Report, Table, Value};
//!
//! let report = Report::new("demo")
//!     .param("ops", "1000")
//!     .table(
//!         Table::new("miss ratios", &["scheme", "miss %"])
//!             .row(vec![Value::s("conv"), Value::f(13.84, 2)])
//!             .row(vec![Value::s("ipoly"), Value::f(7.14, 2)]),
//!     )
//!     .note("paper: conv 13.84, ipoly 7.14");
//! assert!(report.to_text().contains("13.84"));
//! assert!(report.to_json().contains("\"miss ratios\""));
//! assert!(report.to_csv().starts_with("scheme,miss %"));
//! ```

use std::fmt::Write as _;

/// One cell of a report table.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string cell.
    Str(String),
    /// An unsigned integer cell.
    UInt(u64),
    /// A signed integer cell.
    Int(i64),
    /// A float cell with a fixed number of decimals for text/CSV
    /// rendering (JSON always carries the full value).
    Float(f64, u8),
}

impl Value {
    /// String cell.
    pub fn s(v: impl Into<String>) -> Value {
        Value::Str(v.into())
    }

    /// Unsigned-integer cell.
    pub fn u(v: u64) -> Value {
        Value::UInt(v)
    }

    /// Signed-integer cell.
    pub fn i(v: i64) -> Value {
        Value::Int(v)
    }

    /// Float cell rendered with `decimals` places in text and CSV.
    pub fn f(v: f64, decimals: u8) -> Value {
        Value::Float(v, decimals)
    }

    /// Text/CSV rendering of the cell.
    pub fn render(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::UInt(v) => v.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v, d) => format!("{v:.prec$}", prec = *d as usize),
        }
    }

    /// The cell as an `f64`, if numeric (used by tests and tooling that
    /// compare measured numbers without reparsing text).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Str(_) => None,
            Value::UInt(v) => Some(*v as f64),
            Value::Int(v) => Some(*v as f64),
            Value::Float(v, _) => Some(*v),
        }
    }

    fn to_json(&self) -> String {
        match self {
            Value::Str(s) => json_string(s),
            Value::UInt(v) => v.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v, _) => json_f64(*v),
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// A named table: column headers plus rows of [`Value`] cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table name (rendered as a section heading; used as the CSV
    /// `table` discriminator when a report holds several tables).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each should have `columns.len()` cells.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            name: name.into(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (builder style).
    #[must_use]
    pub fn row(mut self, cells: Vec<Value>) -> Self {
        self.push_row(cells);
        self
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<Value>) {
        debug_assert_eq!(cells.len(), self.columns.len(), "row arity");
        self.rows.push(cells);
    }
}

/// A complete experiment result: parameters, tables, notes, and
/// (text-only) rendered extras such as terminal charts.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Report title (the experiment's headline).
    pub title: String,
    /// Effective parameters, in declaration order.
    pub params: Vec<(String, String)>,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form observations (paper reference values, shape checks).
    pub notes: Vec<String>,
    /// Pre-rendered text blocks (terminal charts); included in
    /// [`Report::to_text`] only.
    pub text_blocks: Vec<String>,
    /// Number of failed cells the report carries (degraded sweep rows,
    /// skipped trace blocks). Not rendered directly — the tables name
    /// the failures — but a non-zero count makes `cac` exit 1.
    pub failures: u64,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            ..Report::default()
        }
    }

    /// Records an effective parameter (builder style).
    #[must_use]
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Appends a table (builder style).
    #[must_use]
    pub fn table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Appends a note (builder style).
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Appends a pre-rendered text block (builder style).
    #[must_use]
    pub fn text_block(mut self, block: impl Into<String>) -> Self {
        self.text_blocks.push(block.into());
        self
    }

    /// Adds to the report's failure count (builder style); see
    /// [`Report::failures`].
    #[must_use]
    pub fn flag_failures(mut self, n: u64) -> Self {
        self.failures += n;
        self
    }

    /// Renders the report in the requested format.
    pub fn render(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Text => self.to_text(),
            OutputFormat::Json => self.to_json(),
            OutputFormat::Csv => self.to_csv(),
        }
    }

    /// Human-readable rendering: aligned columns, notes at the end.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        if !self.params.is_empty() {
            let params: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(out, "({})", params.join(", "));
        }
        for table in &self.tables {
            out.push('\n');
            if !table.name.is_empty() {
                let _ = writeln!(out, "## {}", table.name);
            }
            // Column widths from headers and rendered cells.
            let mut widths: Vec<usize> = table.columns.iter().map(String::len).collect();
            let rendered: Vec<Vec<String>> = table
                .rows
                .iter()
                .map(|row| row.iter().map(Value::render).collect())
                .collect();
            for row in &rendered {
                for (i, cell) in row.iter().enumerate() {
                    if i < widths.len() {
                        widths[i] = widths[i].max(cell.len());
                    } else {
                        widths.push(cell.len());
                    }
                }
            }
            let header: Vec<String> = table
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", header.join("  ").trim_end());
            for (row, cells) in table.rows.iter().zip(&rendered) {
                let line: Vec<String> = cells
                    .iter()
                    .enumerate()
                    .map(|(i, cell)| {
                        // Left-align string cells (labels), right-align numbers.
                        if matches!(row.get(i), Some(Value::Str(_))) && i == 0 {
                            format!("{cell:<w$}", w = widths[i])
                        } else {
                            format!("{cell:>w$}", w = widths[i])
                        }
                    })
                    .collect();
                let _ = writeln!(out, "{}", line.join("  ").trim_end());
            }
        }
        for note in &self.notes {
            out.push('\n');
            let _ = writeln!(out, "{note}");
        }
        for block in &self.text_blocks {
            out.push('\n');
            out.push_str(block);
            if !block.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// JSON rendering of the full report (tables, params, notes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"title\":{}", json_string(&self.title));
        out.push_str(",\"params\":{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_string(v));
        }
        out.push_str("},\"tables\":[");
        for (ti, table) in self.tables.iter().enumerate() {
            if ti > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":{},\"columns\":[", json_string(&table.name));
            for (i, c) in table.columns.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(c));
            }
            out.push_str("],\"rows\":[");
            for (ri, row) in table.rows.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push('[');
                for (i, cell) in row.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&cell.to_json());
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(n));
        }
        out.push_str("]}");
        out
    }

    /// CSV rendering. A single-table report emits plain `header\nrows`;
    /// with several tables, each block is preceded by a `# table: name`
    /// comment line and separated by a blank line. Notes and text blocks
    /// are omitted.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let multi = self.tables.len() > 1;
        for (ti, table) in self.tables.iter().enumerate() {
            if ti > 0 {
                out.push('\n');
            }
            if multi {
                let _ = writeln!(out, "# table: {}", table.name);
            }
            let header: Vec<String> = table.columns.iter().map(|c| csv_field(c)).collect();
            let _ = writeln!(out, "{}", header.join(","));
            for row in &table.rows {
                let line: Vec<String> = row.iter().map(|c| csv_field(&c.render())).collect();
                let _ = writeln!(out, "{}", line.join(","));
            }
        }
        out
    }
}

/// Output format selected with the CLI's `--format` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned human-readable text (default).
    #[default]
    Text,
    /// Machine-readable JSON document.
    Json,
    /// Comma-separated rows.
    Csv,
}

impl OutputFormat {
    /// Parses a `--format` argument.
    pub fn parse(s: &str) -> Option<OutputFormat> {
        match s {
            "text" => Some(OutputFormat::Text),
            "json" => Some(OutputFormat::Json),
            "csv" => Some(OutputFormat::Csv),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new("t")
            .param("ops", 10)
            .table(
                Table::new("a", &["name", "n", "pct"])
                    .row(vec![Value::s("x,y"), Value::u(3), Value::f(1.5, 2)])
                    .row(vec![Value::s("z\"q"), Value::u(400), Value::f(0.125, 3)]),
            )
            .table(Table::new("b", &["k"]).row(vec![Value::i(-7)]))
            .note("a note")
            .text_block("#### chart ####")
    }

    #[test]
    fn text_alignment_and_blocks() {
        let text = sample().to_text();
        assert!(text.contains("## a"));
        assert!(text.contains("1.50"));
        assert!(text.contains("0.125"));
        assert!(text.contains("a note"));
        assert!(text.contains("#### chart ####"));
        assert!(text.contains("(ops=10)"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let json = sample().to_json();
        assert!(json.contains("\"z\\\"q\""));
        assert!(json.contains("\"rows\":[[\"x,y\",3,1.5]"));
        assert!(json.contains("\"notes\":[\"a note\"]"));
        assert!(!json.contains("chart"), "text blocks are text-only");
        assert!(json.contains("\"params\":{\"ops\":\"10\"}"));
    }

    #[test]
    fn csv_quotes_and_separates_tables() {
        let csv = sample().to_csv();
        assert!(csv.contains("# table: a"));
        assert!(csv.contains("\"x,y\",3,1.50"));
        assert!(csv.contains("\"z\"\"q\",400,0.125"));
        assert!(csv.contains("# table: b"));
        let single = Report::new("s").table(Table::new("only", &["c"]));
        assert!(!single.to_csv().contains("# table"));
    }

    #[test]
    fn value_helpers() {
        assert_eq!(Value::f(1.0 / 3.0, 2).render(), "0.33");
        assert_eq!(Value::u(9).as_f64(), Some(9.0));
        assert_eq!(Value::s("x").as_f64(), None);
        assert_eq!(OutputFormat::parse("json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::parse("yaml"), None);
    }
}
