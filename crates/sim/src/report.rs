//! Minimal ASCII table rendering for experiment reports.
//!
//! The experiment suite prints results as plain-text tables mirroring the
//! rows of Table 1 and the series behind each figure-style sweep. The tables
//! are deliberately dependency-free so they render identically in test logs
//! and in the `experiments` binary's output.

use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows are allowed and simply widen the table.
    pub fn push_row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Convenience for rows of displayable values.
    pub fn push<T: fmt::Display>(&mut self, cells: &[T]) {
        self.push_row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// The cells of the column with the given header, one per row (blank
    /// for rows too short to reach it), or `None` without such a column.
    #[cfg(test)]
    pub(crate) fn column(&self, header: &str) -> Option<Vec<&str>> {
        let at = self.headers.iter().position(|h| h == header)?;
        Some(
            self.rows
                .iter()
                .map(|row| row.get(at).map_or("", String::as_str))
                .collect(),
        )
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "## {}", self.title)?;
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                write!(f, " {cell:>width$} |")?;
            }
            writeln!(f)
        };
        render_row(f, &self.headers)?;
        write!(f, "|")?;
        for width in &widths {
            write!(f, "{}|", "-".repeat(width + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_title_headers_and_rows() {
        let mut table = Table::new("Example", &["n", "threshold"]);
        table.push(&[256.to_string(), 12.to_string()]);
        table.push(&[65536.to_string(), 40.to_string()]);
        assert_eq!(table.len(), 2);
        let text = table.to_string();
        assert!(text.contains("## Example"));
        assert!(text.contains("| threshold |"));
        assert!(text.contains("65536"));
        // Markdown-style separator line.
        assert!(text.lines().nth(2).unwrap().starts_with("|--"));
    }

    #[test]
    fn columns_align_to_the_widest_cell() {
        let mut table = Table::new("t", &["a"]);
        table.push_row(&["x".to_string()]);
        table.push_row(&["longer".to_string()]);
        let text = table.to_string();
        for line in text.lines().skip(1) {
            assert_eq!(
                line.chars().count(),
                text.lines().nth(1).unwrap().chars().count()
            );
        }
    }

    #[test]
    fn empty_table_is_reported_empty() {
        let table = Table::new("t", &["a", "b"]);
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut table = Table::new("t", &["a", "b", "c"]);
        table.push_row(&["1".to_string()]);
        let text = table.to_string();
        assert!(text.lines().last().unwrap().matches('|').count() == 4);
    }
}
