//! Result tables: fixed-width console rendering plus CSV persistence.
//!
//! Every experiment produces one or more [`Table`]s — the same
//! rows the paper plots — prints them, and writes a CSV under
//! [`results_dir`] for any plotting stack to consume.

use std::io::Write;
use std::path::{Path, PathBuf};

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Human title, printed above the table.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch in {}", self.title);
        self.rows.push(cells);
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the table as CSV (RFC-4180-style quoting for cells that need
    /// it).
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{}", csv_line(&self.columns))?;
        for row in &self.rows {
            writeln!(f, "{}", csv_line(row))?;
        }
        f.flush()
    }

    /// Prints and saves under `results/<stem>.csv`, returning the path.
    /// A CSV that cannot be written is an error naming its path.
    pub fn emit(&self, stem: &str) -> std::io::Result<PathBuf> {
        self.print();
        let path = results_dir().join(format!("{stem}.csv"));
        self.save_csv(&path).map_err(|e| {
            std::io::Error::new(e.kind(), format!("could not save {}: {e}", path.display()))
        })?;
        Ok(path)
    }
}

fn csv_line(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains([',', '"', '\n']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The directory results are written to: `$TAILWISE_RESULTS` or
/// `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("TAILWISE_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("name"));
        assert!(lines[3].starts_with("a"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_enforced() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["only one".into()]);
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = Table::new("demo", &["x"]);
        t.push(vec!["plain".into()]);
        t.push(vec!["has,comma".into()]);
        t.push(vec!["has\"quote".into()]);
        let dir = std::env::temp_dir().join(format!("tailwise-table-{}", std::process::id()));
        let path = dir.join("t.csv");
        t.save_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("plain"));
        assert!(text.contains("\"has,comma\""));
        assert!(text.contains("\"has\"\"quote\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.257), "1.26");
        assert_eq!(f3(0.12345), "0.123");
    }
}
