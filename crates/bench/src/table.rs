//! Plain-text table rendering for experiment output.

use std::fmt;

/// A simple right-aligned text table.
///
/// ```
/// use vpr_bench::Table;
/// let mut t = Table::new(vec!["bench".into(), "IPC".into()]);
/// t.add_row(vec!["swim".into(), "1.12".into()]);
/// let s = t.to_string();
/// assert!(s.contains("swim"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as Markdown (pipes and a separator row), for pasting
    /// results into documentation.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}")?;
            }
            writeln!(f)
        };
        render(&self.headers, f)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(row, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["a".into(), "bbb".into()]);
        t.add_row(vec!["x".into(), "1".into()]);
        t.add_row(vec!["yyyy".into(), "2".into()]);
        t
    }

    #[test]
    fn alignment_pads_to_widest_cell() {
        let s = sample().to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a"));
        assert!(lines[2].ends_with('1'));
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1] || w[1] <= w[0]));
    }

    #[test]
    fn markdown_has_separator() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| a | bbb |"));
        assert!(md.lines().nth(1).unwrap().contains("---"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.add_row(vec!["x".into(), "y".into()]);
    }
}
