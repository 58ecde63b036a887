//! What both binaries share at their edges: the one command-line parser
//! ([`Args`]) and the `BENCH_<name>.json` artifact writer
//! ([`write_bench_json_in`]).

use std::path::{Path, PathBuf};
use std::str::FromStr;

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
}
