//! The `repro` binary's command line, parsed in one place.
//!
//! Every experiment handler used to re-read the same flags out of a shared
//! ad-hoc loop inside the binary; this module owns the full grammar — the
//! experiment word, the run-length preset, the per-run overrides, and the
//! executor's flags (replicates, resume directory, cell cap) — so the binary
//! and the tests exercise exactly one parser. Error strings are part of the
//! CLI contract (`crates/bench/tests/repro_cli.rs` asserts them verbatim).

use std::path::PathBuf;

use crate::experiments::Scale;
use crate::figures::{figure, STUDIES};
use crate::sweep::SweepOptions;

/// Usage string printed by `--help` and after any parse error.
pub const HELP: &str = "usage: repro \
<config|fig1..fig14|table4|sched|pages|channels|fastforward|energy|qos|reliability|trace|all> \
[--quick|--full] [--measure N] [--warmup N] [--seed N] [--threads N] [--csv DIR] \
[--golden-regen] [--git-describe STR] [--replicates N] [--resume-dir DIR] [--max-cells N]";

/// Every experiment word the binary accepts besides the figures' own
/// (`fig1`..`fig14`, from [`FIGURES`](crate::FIGURES)).
pub const EXPERIMENTS: &[&str] = &[
    "config",
    "all",
    "sched",
    "pages",
    "channels",
    "table4",
    "fastforward",
    "energy",
    "qos",
    "reliability",
    "trace",
];

/// The fully parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// The experiment word (validated against [`EXPERIMENTS`]).
    pub experiment: String,
    /// Run-length preset with any overrides applied.
    pub scale: Scale,
    /// Preset name for the report `meta` block: `quick`/`standard`/`full`,
    /// plus `+overrides` when an override flag changed the preset.
    pub scale_label: String,
    /// Directory for CSV copies of each table, if requested.
    pub csv_dir: Option<PathBuf>,
    /// Whether `trace` regenerates the golden trace fixture.
    pub golden_regen: bool,
    /// Workspace `git describe` string for the report `meta` block.
    pub git_describe: Option<String>,
    /// Executor settings (replicates, resume directory, cell cap).
    pub sweep: SweepOptions,
}

/// What a successful parse asks the binary to do.
#[derive(Debug, Clone)]
pub enum Parsed {
    /// Run the experiment described by the options.
    Run(Box<Options>),
    /// Print [`HELP`] and exit successfully (`--help`/`-h`).
    Help,
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns the diagnostic to print (the binary appends [`HELP`]): unknown
/// experiments, unknown flags, flags missing their value, unparseable
/// values, and executor flags the experiment cannot honour.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
    let mut args = args.into_iter();
    // `repro --help` (no experiment) must print usage, not run "--help".
    let experiment = match args.next() {
        Some(first) if first == "--help" || first == "-h" => return Ok(Parsed::Help),
        Some(first) => first,
        None => "all".to_owned(),
    };
    if !EXPERIMENTS.contains(&experiment.as_str()) && figure(&experiment).is_none() {
        return Err(format!("unknown experiment `{experiment}`"));
    }
    let mut scale = Scale::standard();
    let mut preset = "standard";
    let mut overridden = false;
    let mut csv_dir = None;
    let mut golden_regen = false;
    let mut git_describe = None;
    let mut sweep = SweepOptions::default();
    while let Some(arg) = args.next() {
        // One helper for every `--flag <value>` pair: the "needs a value" and
        // "bad value" diagnostics are part of the CLI contract.
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => {
                scale = Scale::quick();
                preset = "quick";
            }
            "--full" => {
                scale = Scale::full();
                preset = "full";
            }
            "--golden-regen" => golden_regen = true,
            "--measure" => {
                scale.measure_cpu_cycles = parse_value(&value("--measure")?, "--measure")?;
                overridden = true;
            }
            "--warmup" => {
                scale.warmup_cpu_cycles = parse_value(&value("--warmup")?, "--warmup")?;
                overridden = true;
            }
            "--seed" => {
                scale.seed = parse_value(&value("--seed")?, "--seed")?;
                overridden = true;
            }
            "--threads" => {
                scale.threads = parse_value(&value("--threads")?, "--threads")?;
                overridden = true;
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(args.next().ok_or("--csv needs a directory")?));
            }
            "--git-describe" => git_describe = Some(value("--git-describe")?),
            "--replicates" => {
                sweep.replicates = parse_value(&value("--replicates")?, "--replicates")?;
                if sweep.replicates == 0 {
                    return Err("--replicates must be at least 1".to_owned());
                }
            }
            "--max-cells" => {
                sweep.max_cells = Some(parse_value(&value("--max-cells")?, "--max-cells")?);
            }
            "--resume-dir" => sweep.resume_dir = Some(PathBuf::from(value("--resume-dir")?)),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    // Only the figure studies take replicates (`table4` reads the channel
    // study; `all` runs its `BENCH_*.json` studies at one replicate).
    let exp = experiment.as_str();
    let figures =
        figure(exp).is_some() || STUDIES.contains(&exp) || ["table4", "all"].contains(&exp);
    if sweep.replicates > 1 && !figures {
        return Err(format!(
            "--replicates applies only to experiments that print figure tables, not `{experiment}`"
        ));
    }
    if sweep.max_cells.is_some() && sweep.resume_dir.is_none() {
        return Err("--max-cells needs --resume-dir to resume from".to_owned());
    }
    let scale_label = if overridden {
        format!("{preset}+overrides")
    } else {
        preset.to_owned()
    };
    Ok(Parsed::Run(Box::new(Options {
        experiment,
        scale,
        scale_label,
        csv_dir,
        golden_regen,
        git_describe,
        sweep,
    })))
}

/// Parses one numeric flag value with the contract diagnostic.
fn parse_value<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("bad {flag} value: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Parsed, String> {
        parse(args.iter().map(|s| (*s).to_owned()))
    }

    fn options(args: &[&str]) -> Options {
        match run(args).expect("parse") {
            Parsed::Run(o) => *o,
            Parsed::Help => panic!("expected a run, got help"),
        }
    }

    #[test]
    fn defaults_to_all_at_standard_scale() {
        let o = options(&[]);
        assert_eq!(o.experiment, "all");
        assert_eq!(o.scale_label, "standard");
        assert_eq!(o.scale.seed, Scale::standard().seed);
    }

    #[test]
    fn presets_and_overrides_shape_the_scale_label() {
        assert_eq!(options(&["sched", "--quick"]).scale_label, "quick");
        let o = options(&["sched", "--quick", "--seed", "9"]);
        assert_eq!(o.scale_label, "quick+overrides");
        assert_eq!(o.scale.seed, 9);
    }

    #[test]
    fn unknown_experiment_and_flags_fail_with_contract_strings() {
        assert_eq!(
            run(&["frobnicate"]).unwrap_err(),
            "unknown experiment `frobnicate`"
        );
        assert_eq!(
            run(&["config", "--bogus-flag"]).unwrap_err(),
            "unknown option `--bogus-flag` (try --help)"
        );
        assert_eq!(
            run(&["config", "--measure"]).unwrap_err(),
            "--measure needs a value"
        );
        assert!(run(&["config", "--seed", "banana"])
            .unwrap_err()
            .starts_with("bad --seed value"));
    }

    #[test]
    fn help_short_circuits_even_with_no_experiment() {
        assert!(matches!(run(&["--help"]), Ok(Parsed::Help)));
        assert!(matches!(run(&["sched", "-h"]), Ok(Parsed::Help)));
    }

    #[test]
    fn sweep_flags_parse_and_validate() {
        let o = options(&[
            "sched",
            "--replicates",
            "2",
            "--max-cells",
            "3",
            "--resume-dir",
            "cells",
            "--git-describe",
            "v0.2.0-g123",
        ]);
        assert_eq!(o.sweep.replicates, 2);
        assert_eq!(o.sweep.max_cells, Some(3));
        assert_eq!(o.sweep.resume_dir, Some(PathBuf::from("cells")));
        assert_eq!(o.git_describe.as_deref(), Some("v0.2.0-g123"));
        assert_eq!(options(&["energy"]).sweep, SweepOptions::default());
        assert_eq!(options(&["all", "--replicates", "3"]).sweep.replicates, 3);
        assert_eq!(
            run(&["sched", "--replicates", "0"]).unwrap_err(),
            "--replicates must be at least 1"
        );
        assert_eq!(
            run(&["energy", "--replicates", "2"]).unwrap_err(),
            "--replicates applies only to experiments that print figure tables, not `energy`"
        );
        assert_eq!(
            run(&["sched", "--max-cells", "3"]).unwrap_err(),
            "--max-cells needs --resume-dir to resume from"
        );
        assert!(run(&["sweep"]).is_err(), "the sweep experiment is gone");
        assert!(run(&["sched", "--workloads", "2"]).is_err());
    }
}
