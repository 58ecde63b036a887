//! What both binaries share at their edges: the one command-line parser
//! ([`Args`]), the one table renderer ([`Table`]: columns declared once,
//! the markdown report and the `BENCH_*.json` rows both derived from
//! them), the `BENCH_<name>.json` artifact writer
//! ([`write_bench_json_in`]) and the host-side console fragments of a
//! replay ([`vm_hwm`], [`media_line`]).

use std::path::{Path, PathBuf};
use std::str::FromStr;

use trail_disk::MediumStats;
use trail_telemetry::JsonValue;

/// Command-line arguments parsed against a declared flag table.
///
/// Every subcommand of `trail-bench` and `trace_tool` declares the flags
/// it accepts as `(name, takes_value)` pairs plus how many positional
/// arguments it takes; anything else on the command line is an error, so
/// a flag that cannot apply is reported instead of silently dropped.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `args` (without `argv[0]` or the subcommand). An argument
    /// starting with `--` must name a flag in `flags`; one that takes a
    /// value consumes the next argument whatever it looks like. Every
    /// other argument is positional, up to `positionals` of them.
    ///
    /// # Errors
    ///
    /// An unknown flag, a value flag at the end of the line, or a
    /// positional argument beyond `positionals`.
    pub fn parse(
        args: &[String],
        flags: &[(&'static str, bool)],
        positionals: usize,
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                if out.positional.len() == positionals {
                    return Err(format!("unexpected argument {a:?}"));
                }
                out.positional.push(a.clone());
                continue;
            }
            let &(name, takes_value) = flags
                .iter()
                .find(|(name, _)| name == a)
                .ok_or_else(|| format!("unknown flag {a}"))?;
            let value = if takes_value {
                let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
                Some(v.clone())
            } else {
                None
            };
            out.flags.push((name, value));
        }
        Ok(out)
    }

    /// Whether `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value given for `name` (the last one, if repeated).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value given for `name`, parsed; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// The value does not parse as a `T`.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }

    /// The `index`-th positional argument.
    #[must_use]
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }
}

/// `--shards N`, when given. `ShardPlan` would quietly run 0 as one
/// shard, and the console line and the artifact would still say 0.
///
/// # Errors
///
/// A value that is not a number, or 0.
pub fn shard_count(args: &Args) -> Result<Option<u32>, String> {
    match args.parsed("--shards")? {
        Some(0) => Err("--shards must be at least 1".to_string()),
        n => Ok(n),
    }
}

/// The process's real peak resident set (`VmHWM` of `/proc/self/status`)
/// as a console fragment; says so where the file or field is missing.
/// Host-side: it goes next to the `peak resident … records` proxy on the
/// console and never into an artifact.
#[must_use]
pub fn vm_hwm() -> String {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        });
    match kb {
        Some(kb) => format!("VmHWM {:.1} MB", kb as f64 / 1024.0),
        None => "VmHWM unavailable".to_string(),
    }
}

/// The `media:` console line of a replay: what its disks hold and where
/// the host bytes that hold it are — written sectors and index bytes
/// summed over the disks, images and pool bytes over their pools, each
/// pool once. Host-side, like [`vm_hwm`].
#[must_use]
pub fn media_line(m: &MediumStats) -> String {
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    format!(
        "  media: {} written / {} distinct sectors ({} packed, {} short, {} aliased); \
         index {:.1} MB + pool {:.1} MB = {:.1} MB resident",
        m.written_sectors,
        m.pool.distinct_sectors,
        m.pool.packed_images,
        m.pool.short_images,
        m.pool.alias_images,
        mb(m.index_bytes),
        mb(m.pool.pool_bytes),
        mb(m.resident_bytes()),
    )
}

/// How a numeric cell prints in the markdown report; the JSON row always
/// carries the number itself. Text cells print as they are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fmt {
    /// `{}`: counts, and values that print as typed (`0.5`, `129.9`).
    Plain,
    /// `{:.n}`.
    Fixed(usize),
    /// `{}x`: a load or speed factor.
    Times,
    /// `{:.n}x`: a ratio.
    FixedTimes(usize),
    /// `{:.n}%` of a fraction: the cell holds `0.12`, the report says
    /// `12.0%`.
    Percent(usize),
}

impl Fmt {
    fn render(self, v: f64) -> String {
        match self {
            Fmt::Plain => format!("{v}"),
            Fmt::Fixed(n) => format!("{v:.n$}"),
            Fmt::Times => format!("{v}x"),
            Fmt::FixedTimes(n) => format!("{v:.n$}x"),
            Fmt::Percent(n) => format!("{:.n$}%", v * 100.0),
        }
    }
}

/// One declared column of a [`Table`]: where it shows (the markdown
/// report, the JSON rows, or both) and how its numbers print.
#[derive(Clone, Debug)]
pub struct Column {
    heading: Option<String>,
    key: Option<&'static str>,
    fmt: Fmt,
    markdown_last: bool,
}

impl Column {
    fn new(heading: Option<String>, key: Option<&'static str>, fmt: Fmt) -> Column {
        Column {
            heading,
            key,
            fmt,
            markdown_last: false,
        }
    }

    /// A column in both renderings: `heading` in the report, `key` in
    /// the JSON rows.
    pub fn both(heading: impl Into<String>, key: &'static str, fmt: Fmt) -> Column {
        Column::new(Some(heading.into()), Some(key), fmt)
    }

    /// A column only the markdown report shows (a derived ratio, a
    /// paper-reference value, two numbers composed into one cell).
    pub fn md(heading: impl Into<String>, fmt: Fmt) -> Column {
        Column::new(Some(heading.into()), None, fmt)
    }

    /// A field only the JSON rows carry.
    #[must_use]
    pub fn json(key: &'static str) -> Column {
        Column::new(None, Some(key), Fmt::Plain)
    }

    /// A JSON-only column without a key of its own: its cell is an object
    /// a library type rendered (`ReplayReport::to_json`,
    /// `FleetReport::to_json_with_clients`), and that object's fields are
    /// spliced into the row at this position.
    #[must_use]
    pub fn flattened() -> Column {
        Column::new(None, None, Fmt::Plain)
    }

    /// Moves the column behind every other one in the markdown report;
    /// its place in the JSON row stays where it was declared.
    #[must_use]
    pub fn markdown_last(mut self) -> Column {
        self.markdown_last = true;
        self
    }
}

/// One value of a [`Table`] row; [`row!`](crate::row) builds them from
/// plain values.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A number: formatted by the column's [`Fmt`] in markdown, raw in JSON.
    Num(f64),
    /// Text, the same in both renderings.
    Text(String),
    /// A ready-made JSON value, for JSON-only columns.
    Json(JsonValue),
}

macro_rules! cell_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::Num(v as f64)
            }
        }
    )*};
}
cell_from_number!(f64, u32, u64, usize);

impl From<bool> for Cell {
    /// Flags are `0`/`1` in the artifacts.
    fn from(v: bool) -> Cell {
        Cell::Num(f64::from(u8::from(v)))
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Text(v)
    }
}

impl From<JsonValue> for Cell {
    fn from(v: JsonValue) -> Cell {
        Cell::Json(v)
    }
}

/// Builds one [`Table`] row: `row![batch, ms, "label"]` converts each
/// value into a [`Cell`](crate::report::Cell).
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($crate::report::Cell::from($cell)),*]
    };
}

/// A result table declared once and rendered twice: [`markdown`] for the
/// report, [`json_rows`] for the `BENCH_*.json` artifact. A scenario
/// names its columns, pushes one row of cells per measurement, and never
/// formats a `| … |` line or builds a row object by hand, so a column
/// cannot be renamed, reordered or re-rounded in one rendering only.
///
/// [`markdown`]: Table::markdown
/// [`json_rows`]: Table::json_rows
#[derive(Clone, Debug)]
pub struct Table {
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given columns, in JSON-key order (which
    /// is markdown order too, but for [`Column::markdown_last`]).
    #[must_use]
    pub fn new(columns: Vec<Column>) -> Table {
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row: one cell per declared column, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not match the columns in number.
    pub fn push(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "a row needs one cell per declared column"
        );
        self.rows.push(cells);
    }

    /// Indices of the columns the markdown report shows, in report order.
    fn markdown_columns(&self) -> Vec<usize> {
        let shown = |last: bool| {
            (0..self.columns.len()).filter(move |&i| {
                self.columns[i].heading.is_some() && self.columns[i].markdown_last == last
            })
        };
        shown(false).chain(shown(true)).collect()
    }

    fn heading(&self, col: usize) -> &str {
        self.columns[col].heading.as_deref().unwrap_or_default()
    }

    fn markdown_cell(&self, row: &[Cell], col: usize) -> String {
        match &row[col] {
            Cell::Num(v) => self.columns[col].fmt.render(*v),
            Cell::Text(s) => s.clone(),
            Cell::Json(_) => panic!(
                "column {:?} shows in markdown and cannot hold a JSON cell",
                self.heading(col)
            ),
        }
    }

    /// The table as markdown: a heading line, a separator, one line per
    /// row.
    #[must_use]
    pub fn markdown(&self) -> String {
        let cols = self.markdown_columns();
        let mut out = markdown_line(cols.iter().map(|&c| self.heading(c).to_string()));
        out += &markdown_separator(cols.len());
        for row in &self.rows {
            out += &markdown_line(cols.iter().map(|&c| self.markdown_cell(row, c)));
        }
        out
    }

    /// The table as markdown with rows and columns exchanged, for a
    /// result the paper prints metric-by-row (Table 2): the first column
    /// becomes the heading line and every other column one line, its
    /// heading in front. `last_column` is appended as is, top to bottom
    /// — the paper's own values, which no JSON row carries.
    ///
    /// # Panics
    ///
    /// Panics if `last_column` does not have one entry per line.
    #[must_use]
    pub fn markdown_transposed(&self, last_column: &[&str]) -> String {
        let cols = self.markdown_columns();
        assert_eq!(last_column.len(), cols.len(), "one entry per line");
        let mut out = String::new();
        for (i, (&c, &last)) in cols.iter().zip(last_column).enumerate() {
            let cells = self.rows.iter().map(|row| self.markdown_cell(row, c));
            out += &markdown_line(
                std::iter::once(self.heading(c).to_string())
                    .chain(cells)
                    .chain(std::iter::once(last.to_string())),
            );
            if i == 0 {
                out += &markdown_separator(self.rows.len() + 2);
            }
        }
        out
    }

    /// One JSON object per row: the keyed columns in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if a [`Column::flattened`] cell is not a JSON object.
    #[must_use]
    pub fn json_rows(&self) -> Vec<JsonValue> {
        self.rows
            .iter()
            .map(|row| {
                let mut fields = Vec::new();
                for (column, cell) in self.columns.iter().zip(row) {
                    let value = match cell {
                        Cell::Num(v) => JsonValue::Num(*v),
                        Cell::Text(s) => JsonValue::Str(s.clone()),
                        Cell::Json(v) => v.clone(),
                    };
                    match (column.key, &column.heading) {
                        (Some(key), _) => fields.push((key.to_string(), value)),
                        (None, Some(_)) => {}
                        (None, None) => {
                            let JsonValue::Obj(inner) = value else {
                                panic!("a flattened column holds a JSON object");
                            };
                            fields.extend(inner);
                        }
                    }
                }
                JsonValue::Obj(fields)
            })
            .collect()
    }

    /// [`json_rows`](Table::json_rows) as one JSON array.
    #[must_use]
    pub fn json(&self) -> JsonValue {
        JsonValue::Arr(self.json_rows())
    }
}

fn markdown_line(cells: impl Iterator<Item = String>) -> String {
    format!("| {} |\n", cells.collect::<Vec<_>>().join(" | "))
}

fn markdown_separator(columns: usize) -> String {
    format!("|{}\n", "---|".repeat(columns))
}

/// Serializes one bench run's headline results to `BENCH_<name>.json` in
/// `dir` (created if missing), returning the path written.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_bench_json_in(
    dir: &Path,
    name: &str,
    results: &JsonValue,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, results.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[(&str, bool)] = &[("--target", true), ("--quick", false)];

    fn parse(line: &[&str], positionals: usize) -> Result<Args, String> {
        let line: Vec<String> = line.iter().map(ToString::to_string).collect();
        Args::parse(&line, FLAGS, positionals)
    }

    #[test]
    fn flags_values_and_positionals_are_told_apart() {
        let args = parse(&["500", "--target", "trail", "--quick"], 1).expect("parses");
        assert_eq!(args.positional(0), Some("500"));
        assert_eq!(args.value("--target"), Some("trail"));
        assert!(args.has("--quick"));
        assert_eq!(
            args.parsed::<u32>("--target"),
            Err("bad value for --target: trail".into())
        );
        assert_eq!(
            parse(&[], 0).expect("empty").parsed::<u32>("--target"),
            Ok(None)
        );
    }

    #[test]
    fn a_flag_value_is_not_a_positional() {
        // `trace_tool replay --target trail w.trace` must open w.trace.
        let args = parse(&["--target", "trail", "w.trace"], 1).expect("parses");
        assert_eq!(args.positional(0), Some("w.trace"));
        assert_eq!(args.positional(1), None);
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        // `trace_tool inspect --bogus w.trace` must not run.
        assert_eq!(
            parse(&["--bogus", "w.trace"], 1).unwrap_err(),
            "unknown flag --bogus"
        );
    }

    #[test]
    fn missing_values_and_stray_arguments_are_errors() {
        assert_eq!(
            parse(&["--target"], 0).unwrap_err(),
            "--target needs a value"
        );
        assert_eq!(
            parse(&["a", "b"], 1).unwrap_err(),
            "unexpected argument \"b\""
        );
    }

    fn sample() -> Table {
        let mut t = Table::new(vec![
            Column::both("name", "name", Fmt::Plain),
            Column::json("runs"),
            Column::both("errors", "errors", Fmt::Plain).markdown_last(),
            Column::both("mean (ms)", "mean_ms", Fmt::Fixed(2)),
            Column::md("vs. paper", Fmt::FixedTimes(1)),
            Column::flattened(),
        ]);
        let extra = |v| JsonValue::obj(vec![("p99_ms", JsonValue::Num(v))]);
        t.push(crate::row!["trail", 3usize, 0u64, 1.456, 0.52, extra(2.0)]);
        t.push(crate::row![
            String::from("std"),
            3u32,
            7u64,
            12.0,
            4.0,
            extra(30.5)
        ]);
        t
    }

    #[test]
    fn markdown_has_one_heading_and_one_dash_per_shown_column() {
        // `runs` and the flattened object are JSON-only; `errors` moves last.
        assert_eq!(
            sample().markdown(),
            "| name | mean (ms) | vs. paper | errors |\n\
             |---|---|---|---|\n\
             | trail | 1.46 | 0.5x | 0 |\n\
             | std | 12.00 | 4.0x | 7 |\n"
        );
    }

    #[test]
    fn json_keys_follow_declaration_order_and_skip_markdown_only_columns() {
        assert_eq!(
            sample().json().to_json(),
            "[{\"name\":\"trail\",\"runs\":3,\"errors\":0,\"mean_ms\":1.456,\"p99_ms\":2},\
             {\"name\":\"std\",\"runs\":3,\"errors\":7,\"mean_ms\":12,\"p99_ms\":30.5}]"
        );
    }

    #[test]
    fn every_format_prints_as_the_reports_always_did() {
        let cases = [
            (Fmt::Plain, 129.9, "129.9"),
            (Fmt::Plain, 32.0, "32"),
            (Fmt::Fixed(0), 1003.6, "1004"),
            (Fmt::Fixed(3), 1.4, "1.400"),
            (Fmt::Times, 0.5, "0.5x"),
            (Fmt::Times, 8.0, "8x"),
            (Fmt::FixedTimes(2), 11.853, "11.85x"),
            (Fmt::Percent(1), 0.1234, "12.3%"),
        ];
        for (fmt, value, want) in cases {
            assert_eq!(fmt.render(value), want, "{fmt:?}");
        }
        // Flags are numbers in the artifacts; text ignores the format.
        let mut t = Table::new(vec![
            Column::both("flag", "flag", Fmt::Plain),
            Column::both("label", "label", Fmt::Fixed(3)),
        ]);
        t.push(crate::row![true, "as is"]);
        assert_eq!(t.markdown().lines().last(), Some("| 1 | as is |"));
        assert_eq!(t.json().to_json(), "[{\"flag\":1,\"label\":\"as is\"}]");
    }

    #[test]
    fn transposed_markdown_puts_one_column_on_each_line() {
        let mut t = Table::new(vec![
            Column::md("metric", Fmt::Plain),
            Column::json("config"),
            Column::both("response (s)", "response_s", Fmt::Fixed(3)),
            Column::both("commits", "commits", Fmt::Plain),
        ]);
        t.push(crate::row!["Trail", "trail", 0.0591, 10u64]);
        t.push(crate::row!["EXT2", "ext2", 0.097, 12u64]);
        assert_eq!(
            t.markdown_transposed(&["paper", "0.059 / 0.097", "—"]),
            "| metric | Trail | EXT2 | paper |\n\
             |---|---|---|---|\n\
             | response (s) | 0.059 | 0.097 | 0.059 / 0.097 |\n\
             | commits | 10 | 12 | — |\n"
        );
        assert_eq!(
            t.json_rows()[1].to_json(),
            "{\"config\":\"ext2\",\"response_s\":0.097,\"commits\":12}"
        );
    }

    #[test]
    #[should_panic(expected = "one cell per declared column")]
    fn a_row_of_the_wrong_arity_is_refused() {
        let mut t = Table::new(vec![Column::md("a", Fmt::Plain), Column::json("b")]);
        t.push(crate::row![1u32]);
    }

    #[test]
    #[should_panic(expected = "cannot hold a JSON cell")]
    fn a_json_cell_in_a_markdown_column_is_refused() {
        let mut t = Table::new(vec![Column::md("a", Fmt::Plain)]);
        t.push(crate::row![JsonValue::Null]);
        let _ = t.markdown();
    }
}
