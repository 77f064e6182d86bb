//! Shared infrastructure for the `experiments` tables and the
//! `perf_telemetry` timing harness: workload constructors and plain-text
//! table rendering.
//!
//! The `experiments` binary regenerates every experiment table (E1–E8,
//! S1–S2); each table's caption states the paper claim it checks. The
//! `perf_telemetry` binary times the tracked workloads as a table of
//! scenario rows and gates them against `bench/baseline.json`.

#![forbid(unsafe_code)]

use std::fmt::Display;

/// A plain-text table with a title, caption, headers and rows.
pub struct Table {
    title: String,
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, caption: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n", self.title));
        if !self.caption.is_empty() {
            out.push_str(&format!("{}\n", self.caption));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<width$} |", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}-|", "-".repeat(w + 1)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 4 significant decimals.
pub fn f(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats an integer-valued cell.
pub fn d(x: impl Display) -> String {
    format!("{x}")
}

/// Workloads used across experiments.
pub mod workloads {
    use lds_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A cycle (Δ = 2) — the fast exact-enumeration workload.
    pub fn cycle(n: usize) -> Graph {
        generators::cycle(n)
    }

    /// A 2D torus (Δ = 4) — the bounded-degree lattice workload.
    pub fn torus(side: usize) -> Graph {
        generators::torus(side, side)
    }

    /// A random Δ-regular graph — the expander-like workload.
    pub fn regular(n: usize, d: usize, seed: u64) -> Graph {
        generators::random_regular(n, d, &mut StdRng::seed_from_u64(seed))
    }
}
