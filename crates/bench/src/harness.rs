//! Harness plumbing: argument parsing, timing, experiment context.
//!
//! Deliberately dependency-free (no clap): the `repro` binary takes
//! `--key value` pairs after the experiment name.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use slimsell_analysis::report::TextTable;

/// Whether an option value parses as the option's type.
type ValueCheck = fn(&str) -> bool;

fn parses_as<T: std::str::FromStr>(v: &str) -> bool {
    v.parse::<T>().is_ok()
}

/// Every numeric option any experiment reads, with the type it parses
/// as. [`Args::parse`] checks their values up front, so a malformed
/// number is a usage error before anything runs.
const NUMERIC_OPTIONS: &[(&str, ValueCheck)] = &[
    ("adaptive", parses_as::<u32>),
    ("budget-log2", parses_as::<u32>),
    ("deadline-us", parses_as::<u64>),
    ("gpu-ghz", parses_as::<f64>),
    ("queries", parses_as::<usize>),
    ("retries", parses_as::<usize>),
    ("rho", parses_as::<f64>),
    ("runs", parses_as::<usize>),
    ("scale-log2", parses_as::<u32>),
    ("scale-shift", parses_as::<u32>),
    ("seed", parses_as::<u64>),
    ("shift", parses_as::<u32>),
    ("tile", parses_as::<usize>),
];

/// Parsed command-line arguments: one positional experiment name plus
/// `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The experiment name (first positional argument).
    pub experiment: String,
    opts: BTreeMap<String, String>,
}

impl Args {
    /// Parses from an iterator of arguments (excluding `argv[0]`).
    /// Rejects a malformed value for any numeric option.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut it = args.into_iter();
        let experiment = it.next().ok_or("missing experiment name")?;
        let mut opts = BTreeMap::new();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("missing value for --{key}"))?;
            if NUMERIC_OPTIONS.iter().any(|&(k, ok)| k == key && !ok(&v)) {
                return Err(format!("bad value for --{key}: {v:?}"));
            }
            opts.insert(key.to_string(), v);
        }
        Ok(Self { experiment, opts })
    }

    /// Typed option lookup with default.
    ///
    /// # Panics
    /// Panics on a value that does not parse as `T`; [`parse`](Self::parse)
    /// has already rejected those for every numeric option.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.opts.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| panic!("bad value for --{key}: {v:?}")),
            None => default,
        }
    }

    /// String option lookup.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.opts.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Whether an option was explicitly provided.
    pub fn has(&self, key: &str) -> bool {
        self.opts.contains_key(key)
    }
}

/// Shared experiment context: default scales and result emission.
pub struct ExpContext {
    /// Parsed arguments.
    pub args: Args,
    /// Directory for CSV dumps (default `results/`).
    pub results_dir: PathBuf,
}

impl ExpContext {
    /// Builds a context from arguments.
    pub fn new(args: Args) -> Self {
        let results_dir = PathBuf::from(args.get_str("results-dir", "results"));
        Self { args, results_dir }
    }

    /// Default Kronecker scale (log2 n). The paper uses 2^20–2^28; the
    /// default 14 fits a 2-core CI host in seconds. Override with
    /// `--scale-log2`.
    pub fn scale_log2(&self) -> u32 {
        self.args.get("scale-log2", 14u32)
    }

    /// Default edges-per-vertex ρ (paper: 2^1…2^10).
    pub fn rho(&self) -> f64 {
        self.args.get("rho", 16.0f64)
    }

    /// RNG seed.
    pub fn seed(&self) -> u64 {
        self.args.get("seed", 42u64)
    }

    /// Runs to average per measurement point.
    pub fn runs(&self) -> usize {
        self.args.get("runs", 3usize)
    }

    /// Real-world stand-in scale shift (n divided by 2^shift).
    pub fn scale_shift(&self) -> u32 {
        self.args.get("scale-shift", 4u32)
    }

    /// Writes a raw artifact (e.g. machine-readable JSON) into the
    /// results directory.
    pub fn emit_raw(&self, filename: &str, contents: &str) {
        if let Err(e) = std::fs::create_dir_all(&self.results_dir) {
            eprintln!("warning: cannot create {}: {e}", self.results_dir.display());
            return;
        }
        let path = self.results_dir.join(filename);
        match std::fs::write(&path, contents) {
            Ok(()) => println!("[{} written]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    /// Prints a rendered table and writes its CSV twin.
    pub fn emit(&self, name: &str, title: &str, table: &TextTable) {
        println!("\n== {title} ==");
        print!("{}", table.render());
        if let Err(e) = std::fs::create_dir_all(&self.results_dir) {
            eprintln!("warning: cannot create {}: {e}", self.results_dir.display());
            return;
        }
        let path = self.results_dir.join(format!("{name}.csv"));
        match std::fs::write(&path, table.to_csv()) {
            Ok(()) => println!("[csv written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs `f` `runs` times and returns the mean seconds (result discarded).
pub fn mean_time(runs: usize, mut f: impl FnMut()) -> f64 {
    assert!(runs > 0);
    let mut total = 0.0;
    for _ in 0..runs {
        total += timed(&mut f).1;
    }
    total / runs as f64
}

/// Runs `f` `runs` times and returns the median seconds (the robust
/// statistic the machine-readable bench artifacts record).
pub fn median_time(runs: usize, mut f: impl FnMut()) -> f64 {
    assert!(runs > 0);
    let mut samples: Vec<f64> = (0..runs).map(|_| timed(&mut f).1).collect();
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        0.5 * (samples[mid - 1] + samples[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args() {
        let a =
            Args::parse(["fig5a", "--scale-log2", "16", "--name", "x"].map(String::from)).unwrap();
        assert_eq!(a.experiment, "fig5a");
        assert_eq!(a.get("scale-log2", 0u32), 16);
        assert_eq!(a.get_str("name", "y"), "x");
        assert_eq!(a.get("missing", 7i32), 7);
        assert!(a.has("name") && !a.has("nope"));
    }

    #[test]
    fn parse_errors() {
        assert!(Args::parse([]).is_err());
        assert!(Args::parse(["e", "positional"].map(String::from)).is_err());
        assert!(Args::parse(["e", "--flag"].map(String::from)).is_err());
    }

    #[test]
    fn malformed_numbers_are_parse_errors() {
        for (flag, bad) in [("scale-log2", "12x"), ("runs", "-1"), ("rho", "many"), ("seed", "")] {
            let err =
                Args::parse(["fig1", &format!("--{flag}"), bad].map(String::from)).expect_err(flag);
            assert!(err.contains(&format!("--{flag}")), "{err}");
        }
        // Well-formed numbers and non-numeric options still parse.
        let a = Args::parse(
            ["fig1", "--rho", "2.5", "--kernel", "all", "--results-dir", "r"].map(String::from),
        )
        .unwrap();
        assert_eq!(a.get("rho", 0.0f64), 2.5);
        assert_eq!(a.get_str("kernel", ""), "all");
    }

    #[test]
    fn every_numeric_option_read_by_an_experiment_is_checked() {
        // `get` panics on a malformed value, so every key passed to it
        // must be in the up-front table.
        let src = [
            include_str!("harness.rs"),
            include_str!("experiments/ablate.rs"),
            include_str!("experiments/bounds.rs"),
            include_str!("experiments/fig1.rs"),
            include_str!("experiments/fig10.rs"),
            include_str!("experiments/fig5.rs"),
            include_str!("experiments/fig6.rs"),
            include_str!("experiments/fig7.rs"),
            include_str!("experiments/fig8.rs"),
            include_str!("experiments/fig9.rs"),
            include_str!("experiments/frontier.rs"),
            include_str!("experiments/masked.rs"),
            include_str!("experiments/mod.rs"),
            include_str!("experiments/prep.rs"),
            include_str!("experiments/scaling.rs"),
            include_str!("experiments/serve.rs"),
            include_str!("experiments/tables.rs"),
        ];
        let needle = concat!("args.", "get(\"");
        for file in src {
            for (at, _) in file.match_indices(needle) {
                let key = file[at + needle.len()..].split('"').next().unwrap();
                assert!(
                    NUMERIC_OPTIONS.iter().any(|&(k, _)| k == key),
                    "--{key} is read with `get` but not checked by `Args::parse`"
                );
            }
        }
    }

    #[test]
    fn timing_helpers() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(
            mean_time(2, || {
                std::hint::black_box(0);
            }) >= 0.0
        );
    }
}
