//! The paper's figures as data: [`FIGURES`] holds one entry per figure,
//! table or section the reproduction regenerates, and [`render`] prints
//! any of them (`cargo bench -p bench --bench figures [-- ID...]`).
//!
//! A simulated figure is a list of panels. Each panel runs as one
//! `sim::api` experiment at [`ExpParams::bench`] scale (`CC_SCALE=N`
//! scales run lengths, `CC_TINY=1` shrinks them to the CI smoke scale).
//! All figures of a process share `sim::api`'s memoized run cache, so
//! shared baselines and alone-IPC runs are simulated once. Absolute
//! numbers differ from the paper (synthetic workloads, short runs); the
//! orderings and rough factors, printed under the paper's own numbers,
//! are the reproduction targets.

mod figures;

use std::io::{self, Write};

use chargecache::MechanismSpec;
use sim::api::{Cell, Experiment, Metric, SweepResult, Variant};
use sim::exp::ExpParams;
use traces::{eight_core_mixes, single_core_workloads};

pub use figures::FIGURES;

/// One figure, table or section of the paper.
pub struct Figure {
    /// Selector on the `figures` bench command line (`fig07`).
    pub id: &'static str,
    title: &'static str,
    /// What the paper reports, printed under the title.
    paper: &'static str,
    body: Body,
}

enum Body {
    Sweep(&'static [Panel]),
    /// Tables from the analytic models, without simulation.
    Model(fn() -> Vec<Table>),
}

/// One experiment and the table printed from it.
struct Panel {
    title: &'static str,
    subjects: Subjects,
    /// Registry names.
    mechanisms: &'static [&'static str],
    axis: Axis,
    rows: Rows,
    columns: &'static [Column],
    /// Sort the subject rows ascending by the first column.
    sorted: bool,
    /// Print a MAX row under each AVG row.
    max_row: bool,
    /// Every aggregated value must exceed this, or rendering panics.
    floor: Option<f64>,
}

enum Subjects {
    Workloads,
    /// The first `n` eight-core mixes.
    Mixes(usize),
}

enum Axis {
    /// The paper configuration alone.
    Paper,
    /// Labelled variants; the name heads the axis column.
    Variants(&'static str, fn() -> Vec<Variant>),
    Families(&'static [&'static str]),
    Timings(&'static [&'static str]),
}

enum Rows {
    /// One row per subject and axis point, then an AVG row per point.
    PerSubject,
    /// One row per axis point, each value averaged over the subjects.
    PerPoint,
}

struct Column {
    name: &'static str,
    /// The mechanism whose cell the value reads.
    mechanism: &'static str,
    value: Value,
}

enum Value {
    Pct(Metric),
    /// A metric with this many decimals.
    Num(Metric, usize),
    /// A percentage relative to another cell of the same subject.
    Rel(Rel),
    /// A property of the axis point's configuration, not of a run.
    Point(fn(&Cell) -> String),
}

enum Rel {
    /// Headline-IPC speedup over the baseline cell.
    Speedup,
    /// Weighted speedup over the baseline cell's, with the baseline's
    /// alone-IPC denominators.
    WeightedSpeedup,
    /// DRAM energy saved against the baseline cell.
    EnergySaving,
    /// HCRAC hit rate minus that of the cell at the named variant.
    HitRateGain(&'static str),
}

struct Table {
    title: String,
    /// The label columns come first.
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// The figures named by `ids`, in that order; every figure when `ids`
/// is empty.
///
/// # Errors
///
/// Returns a message that lists the valid ids if an id is unknown.
pub fn select(ids: &[String]) -> Result<Vec<&'static Figure>, String> {
    if ids.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    let find = |id: &String| FIGURES.iter().find(|f| f.id == id);
    let valid = || FIGURES.iter().map(|f| f.id).collect::<Vec<_>>().join(" ");
    let unknown = |id| format!("unknown figure {id:?}; valid ids: {}", valid());
    ids.iter()
        .map(|id| find(id).ok_or_else(|| unknown(id)))
        .collect()
}

/// Runs and prints one figure.
///
/// # Panics
///
/// Panics with the cell's identity if a simulated cell fails, and if a
/// panel's values fall to its floor.
pub fn render(fig: &Figure, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "=== {}: {} ===", fig.id, fig.title)?;
    writeln!(out, "paper: {}", fig.paper)?;
    let caveat = "(synthetic workloads; compare shapes/orderings, not absolutes)";
    writeln!(out, "{caveat}\n")?;
    match fig.body {
        Body::Model(tables) => tables().iter().try_for_each(|t| write_table(out, t)),
        Body::Sweep(panels) => panels.iter().try_for_each(|p| write_table(out, &p.table())),
    }
}

/// Left-aligns the first column and right-aligns the rest, two spaces
/// apart.
fn write_table(out: &mut impl Write, t: &Table) -> io::Result<()> {
    writeln!(out, "--- {} ---", t.title)?;
    let lines = || std::iter::once(&t.header).chain(&t.rows);
    let mut width = vec![0; t.header.len()];
    for row in lines() {
        for (w, cell) in width.iter_mut().zip(row) {
            *w = cell.chars().count().max(*w);
        }
    }
    for row in lines() {
        let mut line = format!("{:<w$}", row[0], w = width[0]);
        for (cell, w) in row.iter().zip(&width).skip(1) {
            line += &format!("  {cell:>w$}");
        }
        writeln!(out, "{}", line.trim_end())?;
    }
    writeln!(out)
}

/// A fraction as a percentage; `-` when undefined.
fn pct(x: f64) -> String {
    if x.is_nan() {
        "-".into()
    } else {
        format!("{:.1}%", x * 100.0)
    }
}

fn defined(xs: &[f64]) -> impl Iterator<Item = f64> + '_ {
    xs.iter().copied().filter(|x| !x.is_nan())
}

/// Aggregates skip undefined values; with none left they are undefined.
fn mean(xs: &[f64]) -> f64 {
    defined(xs).sum::<f64>() / defined(xs).count() as f64
}

fn max(xs: &[f64]) -> f64 {
    defined(xs).reduce(f64::max).unwrap_or(f64::NAN)
}

impl Panel {
    fn run(&self) -> SweepResult {
        let exp = match self.subjects {
            Subjects::Workloads => Experiment::new().workloads(single_core_workloads()),
            Subjects::Mixes(n) => Experiment::new().mixes(eight_core_mixes().into_iter().take(n)),
        };
        let exp = match self.axis {
            Axis::Paper => exp,
            Axis::Variants(_, variants) => exp.variants(variants()),
            Axis::Families(fs) => exp.families(fs.iter().map(|f| f.parse().expect("family"))),
            Axis::Timings(ts) => exp.timings(ts.iter().map(|t| t.parse().expect("timing"))),
        };
        let weighted = |c: &Column| matches!(c.value, Value::Rel(Rel::WeightedSpeedup));
        let exp = match self.columns.iter().any(weighted) {
            true => exp.alone_ipcs(MechanismSpec::baseline()),
            false => exp,
        };
        let parse = |m: &&str| m.parse().expect("registry name");
        let mechanisms: Vec<MechanismSpec> = self.mechanisms.iter().map(parse).collect();
        let sweep = exp.mechanisms(&mechanisms).params(ExpParams::bench()).run();
        let sweep = sweep.expect("figure panels are valid experiments");
        for c in &sweep.cells {
            c.result(); // panics with the identity of a failed cell
        }
        sweep
    }

    /// A row's label cells: `first`, then the axis point when the panel
    /// prints per-subject rows over an axis.
    fn labels(&self, first: &str, point: &str) -> Vec<String> {
        let axis_column =
            matches!(self.rows, Rows::PerSubject) && !matches!(self.axis, Axis::Paper);
        [first, point][..1 + usize::from(axis_column)]
            .iter()
            .map(|l| l.to_string())
            .collect()
    }

    fn table(&self) -> Table {
        let sweep = self.run();
        let mut subjects: Vec<&str> = sweep.cells.iter().map(|c| c.subject.as_str()).collect();
        subjects.dedup(); // cells are subject-major
        let points: Vec<String> = match self.axis {
            Axis::Families(_) => sweep.families.iter().map(ToString::to_string).collect(),
            Axis::Timings(_) => sweep.timings.iter().map(ToString::to_string).collect(),
            _ => sweep.variants.clone(),
        };
        let at = |s: &str, p: &str, m: &str| {
            let cell = match self.axis {
                Axis::Families(_) => sweep.cell_in(s, p, m, "paper"),
                Axis::Timings(_) => sweep.cell_at(s, p, m, "paper"),
                _ => sweep.cell(s, m, p),
            };
            cell.unwrap_or_else(|| panic!("{}: no {s}/{p}/{m} cell", self.title))
        };
        let value = |s: &str, p: &str, col: &Column| {
            let (c, base) = (at(s, p, col.mechanism), || at(s, p, "baseline"));
            let energy = |c: &Cell| c.metric(Metric::EnergyMj);
            let ws = |c| sweep.weighted_speedup(c).unwrap_or(f64::NAN);
            let hit = |c: &Cell| c.metric(Metric::HcracHitRate);
            match col.value {
                Value::Pct(m) | Value::Num(m, _) => c.metric(m),
                Value::Rel(Rel::Speedup) => sweep.speedup(c, base()),
                Value::Rel(Rel::WeightedSpeedup) => ws(c) / ws(base()).max(1e-9) - 1.0,
                Value::Rel(Rel::EnergySaving) => 1.0 - energy(c) / energy(base()).max(1e-12),
                Value::Rel(Rel::HitRateGain(v)) => hit(c) - hit(at(s, v, col.mechanism)),
                Value::Point(_) => f64::NAN,
            }
        };
        // A point's configuration is the same in every subject's cell.
        let row = |labels: Vec<String>, p: &str, xs: &[f64]| {
            let show = |(col, &x): (&Column, &f64)| match col.value {
                Value::Point(f) => f(at(subjects[0], p, col.mechanism)),
                Value::Num(_, d) if !x.is_nan() => format!("{x:.d$}"),
                _ => pct(x),
            };
            labels
                .into_iter()
                .chain(self.columns.iter().zip(xs).map(show))
                .collect()
        };

        // values[point][subject][column]
        let values: Vec<Vec<Vec<f64>>> = points
            .iter()
            .map(|p| {
                let xs = |s: &&str| self.columns.iter().map(|c| value(s, p, c)).collect();
                subjects.iter().map(xs).collect()
            })
            .collect();
        let per_subject = matches!(self.rows, Rows::PerSubject);
        let mut order: Vec<usize> = (0..subjects.len()).filter(|_| per_subject).collect();
        if self.sorted {
            order.sort_by(|&a, &b| values[0][a][0].total_cmp(&values[0][b][0]));
        }
        let mut rows = Vec::new();
        for s in order {
            for (p, v) in points.iter().zip(&values) {
                rows.push(row(self.labels(subjects[s], p), p, &v[s]));
            }
        }
        let aggregates = [("AVG", mean as fn(&[f64]) -> f64), ("MAX", max)];
        for (name, aggregate) in &aggregates[..1 + usize::from(self.max_row)] {
            for (p, by_subject) in points.iter().zip(&values) {
                let column = |k| aggregate(&by_subject.iter().map(|xs| xs[k]).collect::<Vec<_>>());
                let xs: Vec<f64> = (0..self.columns.len()).map(column).collect();
                if let Some(floor) = self.floor {
                    assert!(xs.iter().all(|&x| x > floor), "{}: {p} {xs:?}", self.title);
                }
                let first = if per_subject { name } else { p.as_str() };
                rows.push(row(self.labels(first, p), p, &xs));
            }
        }

        let axis = match self.axis {
            Axis::Paper => "",
            Axis::Variants(name, _) => name,
            Axis::Families(_) => "family",
            Axis::Timings(_) => "speed bin",
        };
        let (first, title) = match self.subjects {
            Subjects::Workloads => ("workload", self.title.to_string()),
            Subjects::Mixes(n) => {
                let total = eight_core_mixes().len();
                ("mix", format!("{} ({n} of {total} mixes)", self.title))
            }
        };
        let mut header = self.labels(if per_subject { first } else { axis }, axis);
        header.extend(self.columns.iter().map(|c| c.name.to_string()));
        Table {
            title,
            header,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels() -> impl Iterator<Item = &'static Panel> {
        FIGURES.iter().flat_map(|f| match f.body {
            Body::Sweep(panels) => panels,
            Body::Model(_) => &[],
        })
    }

    #[test]
    fn ids_are_unique_and_pinned_and_every_figure_has_paper_text() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        let pinned = "fig03 fig04 fig06 table2 fig07 fig08 fig09 fig10 fig11 \
                      family timing sec63 ablations";
        assert_eq!(ids.join(" "), pinned);
        assert!(ids.iter().enumerate().all(|(i, id)| !ids[..i].contains(id)));
        assert!(FIGURES.iter().all(|f| !f.paper.is_empty()));
        let err = select(&["fig07".into(), "fig99".into()]).err();
        let err = err.expect("fig99 is unknown");
        assert!(err.contains("fig99") && err.contains("ablations"), "{err}");
    }

    #[test]
    fn columns_read_mechanisms_and_variants_their_panel_declares() {
        let registered = |m: &str| chargecache::registry::resolve(m).is_some();
        for p in panels() {
            assert!(p.mechanisms.iter().all(|m| registered(m)), "{}", p.title);
            let labels: Vec<String> = match p.axis {
                Axis::Variants(_, vs) => vs().iter().map(|v| v.label().to_string()).collect(),
                _ => Vec::new(),
            };
            for c in p.columns {
                assert!(p.mechanisms.contains(&c.mechanism), "{}", c.name);
                match c.value {
                    Value::Rel(Rel::HitRateGain(v)) => assert!(labels.iter().any(|l| l == v)),
                    Value::Rel(_) => assert!(p.mechanisms.contains(&"baseline"), "{}", p.title),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn analytic_figures_print_the_paper_anchors() {
        let mut out = Vec::new();
        for fig in select(&["fig06".into(), "sec63".into()]).expect("known ids") {
            render(fig, &mut out).expect("write to a Vec");
        }
        let text = String::from_utf8(out).expect("utf-8");
        let row = |label: &str, value: &str| {
            let mut lines = text.lines().filter(|l| l.starts_with(label));
            lines.any(|l| l.split_whitespace().any(|w| w == value))
        };
        assert!(row("ready-to-access (fully charged)", "10.00"), "{text}");
        assert!(row("ready-to-access (64 ms old)", "14.50"), "{text}");
        assert!(row("total storage (Equation 1)", "5376"), "{text}");
        assert!(row("storage per core", "672"), "{text}");
    }
}
