//! `repro`: regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [options]
//!
//! experiments:
//!   config        Tables 2 and 3 (configuration dump)
//!   fig1 .. fig7  memory scheduling study (Section 4.1)
//!   fig8          single-access row activations (Section 4.2.1)
//!   fig9 .. fig11 page-management study (Section 4.2)
//!   fig12..fig14  multi-channel study (Section 4.3)
//!   table4        best mapping scheme per workload
//!   sched         figs 1-7 in one sweep
//!   pages         figs 9-11 in one sweep
//!   channels      figs 12-14 + table 4 in one sweep
//!   fastforward   smoke gate: the event kernel vs the per-cycle reference
//!                 loop (the test oracle) on four points, asserted
//!                 bit-identical; prints both throughputs and fails if the
//!                 event kernel slows any dense stream below the reference
//!                 loop (writes nothing)
//!   energy        DRAM energy sweep: 5 schedulers x 4 page policies x
//!                 4 power policies on idle-heavy + dense workloads;
//!                 writes BENCH_energy.json
//!   qos           multi-tenant QoS sweep: 3 tenant mixes x 5 schedulers x
//!                 3 QoS policies plus alone-run baselines; writes
//!                 BENCH_qos.json
//!   reliability   fault injection / ECC / patrol scrub sweep: 2 fault
//!                 rates x 2 scrub intervals x 2 power policies on the
//!                 flagship tenant mix, plus fault-free baselines; writes
//!                 BENCH_reliability.json
//!   trace         trace capture & replay round trip: record/replay timing
//!                 with bit-identical stats asserted, plus the golden
//!                 mini-trace check; writes BENCH_trace.json
//!                 (--golden-regen rewrites tests/data/golden_mix.trace)
//!   all           everything above
//!
//! options:
//!   --quick | --full      run length preset (default: standard)
//!   --measure <cycles>    override measurement CPU cycles
//!   --warmup <cycles>     override warm-up CPU cycles
//!   --seed <n>            workload seed (default 1)
//!   --threads <n>         worker threads across runs (one configuration per
//!                         thread; a single run is always one thread)
//!   --csv <dir>           also write each table as CSV into <dir> (every
//!                         study's, the BENCH_*.json studies' included)
//!   --git-describe <s>    version string for the report meta block
//!                         (or set REPRO_GIT_DESCRIBE)
//!   --replicates <n>      figure experiments: measured seeds per
//!                         configuration, forked from one warm-up; tables
//!                         print mean +/- 95% CI (default 1)
//!   --resume-dir <dir>    keep every finished cell in <dir> and reuse it on
//!                         the next run (default: nothing kept)
//!   --max-cells <n>       stop after n freshly simulated cells, writing no
//!                         report; rerun the same command to resume
//!
//! Every figure (and the energy / QoS tables that carry a claim) prints one
//! `# [holds|marginal|fails] <sentence>: <observed>` line per claim under
//! its table; `cloudmc_bench::figures` states the rule.
//!
//! Progress (one line per finished configuration) goes to stderr. If stdout
//! closes early (`repro qos | head -1`), printing stops and the run still
//! finishes and writes its files.
//! ```

use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cloudmc_bench::{
    baseline_study, channel_study, config_report, energy_study, fastforward_report,
    page_policy_study, parse, qos_study, regenerate_golden_trace, reliability_study,
    scheduler_study, trace_study, verdict_lines, Figure, Options, Parsed, Report, RunMeta,
    SweepError, Table, FIGURES, HELP, STUDIES,
};

/// `repro`'s stdout. A reader that leaves early (`repro qos | head -1`)
/// closes the pipe: printing stops there, and the study still finishes and
/// writes its files. Any other write error is reported once on stderr and
/// stops printing the same way.
#[derive(Default)]
struct Stdout {
    closed: bool,
}

impl Stdout {
    fn print(&mut self, text: &str) {
        if self.closed {
            return;
        }
        let mut out = std::io::stdout().lock();
        if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
            if e.kind() != ErrorKind::BrokenPipe {
                eprintln!("warning: stdout: {e}; printing stops, the run goes on");
            }
            self.closed = true;
        }
    }
}

/// Reports the outcome of writing `path` on stderr.
///
/// Returns `Err(FAILURE)` (after printing the contract diagnostic) when the
/// write failed, so the caller can exit with a failure code instead of
/// panicking; the computed table or report was already printed to stdout
/// either way.
fn wrote(path: &Path, outcome: std::io::Result<()>) -> Result<(), ExitCode> {
    match &outcome {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("error: cannot write {}: {e}", path.display()),
    }
    outcome.map_err(|_| ExitCode::FAILURE)
}

/// Prints `table` with a verdict line per claim it carries and, with
/// `--csv`, writes it into `csv_dir`.
fn emit(out: &mut Stdout, table: &Table, csv_dir: &Option<PathBuf>) -> Result<(), ExitCode> {
    out.print(&(table.to_text() + &verdict_lines(table)));
    let Some(dir) = csv_dir else {
        return Ok(());
    };
    let name: String = table
        .title
        .chars()
        .take_while(|c| *c != ':')
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    let path = dir.join(format!("{name}.csv"));
    let outcome = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, table.to_csv()));
    wrote(&path, outcome)
}

/// Prints every table of a study's `report` (and, with `--csv`, writes
/// it), then writes the report as `path`, named `benchmark` in the JSON.
fn write_report(
    out: &mut Stdout,
    path: &str,
    benchmark: &str,
    report: &Report,
    meta: &RunMeta,
    csv_dir: &Option<PathBuf>,
) -> Result<(), ExitCode> {
    for table in &report.tables {
        emit(out, table, csv_dir)?;
    }
    let json = report.to_json(meta, benchmark);
    wrote(Path::new(path), std::fs::write(path, json))
}

/// A study's results, or how `repro` ends instead: a `--max-cells` stop
/// prints the resume hint and succeeds, a failed configuration prints the
/// error and fails. Either way nothing more is printed or written.
fn finished<T>(experiment: &str, result: Result<T, SweepError>) -> Result<T, ExitCode> {
    result.map_err(|e| match e {
        SweepError::Stopped { .. } => {
            eprintln!("{e}");
            ExitCode::SUCCESS
        }
        SweepError::Failed { .. } => {
            eprintln!("error: {experiment}: {e}");
            ExitCode::FAILURE
        }
    })
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(Parsed::Run(opts)) => opts,
        Ok(Parsed::Help) => {
            Stdout::default().print(HELP);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{HELP}");
            return ExitCode::FAILURE;
        }
    };
    match run(*opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn run(opts: Options) -> Result<(), ExitCode> {
    let Options {
        experiment,
        scale,
        scale_label,
        csv_dir,
        golden_regen,
        git_describe,
        sweep,
    } = opts;
    let meta = RunMeta::collect(&scale_label, git_describe.as_deref());
    let out = &mut Stdout::default();
    let exp = experiment.as_str();
    let wants = |names: &[&str]| names.contains(&exp);
    eprintln!(
        "# running `{}` (warmup {} + measure {} CPU cycles per point, seed {}, {} threads)",
        experiment, scale.warmup_cpu_cycles, scale.measure_cpu_cycles, scale.seed, scale.threads
    );

    if wants(&["config", "all"]) {
        out.print(&config_report());
    }
    for study in STUDIES {
        let figures: Vec<&Figure> = FIGURES
            .iter()
            .filter(|f| f.study == study && wants(&[f.word, study, "all"]))
            .collect();
        let table4 = study == "channels" && wants(&["table4", "channels", "all"]);
        if figures.is_empty() && !table4 {
            continue;
        }
        let (matrix, mappings) = match study {
            "sched" => (finished(exp, scheduler_study(&scale, &sweep))?, None),
            "fig8" => (finished(exp, baseline_study(&scale, &sweep))?, None),
            "pages" => (finished(exp, page_policy_study(&scale, &sweep))?, None),
            _ => {
                let channels = finished(exp, channel_study(&scale, &sweep))?;
                let mappings = channels.table4();
                (channels.matrix, Some(mappings))
            }
        };
        for figure in figures {
            emit(out, &figure.table(&matrix), &csv_dir)?;
        }
        if let Some(mappings) = mappings.filter(|_| table4) {
            out.print(&mappings.to_text());
        }
    }
    if wants(&["fastforward", "all"]) {
        let report = finished(exp, fastforward_report(&scale))?;
        for table in &report.tables {
            emit(out, table, &csv_dir)?;
        }
        // Regression gate (run as a CI smoke step): on dense streams the
        // event kernel has no idle cycles to skip, so any speedup below 1.0
        // means its bookkeeping is taxing the busy path.
        let table = &report.tables[0];
        for (name, _) in table.rows.iter().filter(|(name, _)| name != "idle_heavy") {
            let speedup = table.value(name, "speedup").unwrap_or(0.0);
            if speedup < 1.0 {
                eprintln!(
                    "error: dense stream `{name}` regressed: event kernel ran at {speedup:.2}x the reference loop"
                );
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if wants(&["energy", "all"]) {
        let report = finished(exp, energy_study(&scale, &sweep))?;
        write_report(
            out,
            "BENCH_energy.json",
            "dram_energy",
            &report,
            &meta,
            &csv_dir,
        )?;
    }
    if wants(&["qos", "all"]) {
        let report = finished(exp, qos_study(&scale, &sweep))?;
        write_report(
            out,
            "BENCH_qos.json",
            "multi_tenant_qos",
            &report,
            &meta,
            &csv_dir,
        )?;
    }
    if wants(&["reliability", "all"]) {
        let report = finished(exp, reliability_study(&scale, &sweep))?;
        write_report(
            out,
            "BENCH_reliability.json",
            "reliability",
            &report,
            &meta,
            &csv_dir,
        )?;
        // Regression gate (run as a CI smoke step): the fault ledger must
        // balance on every point, and scrubbing must have produced real
        // traffic wherever it was enabled.
        let table = &report.tables[0];
        for (label, stats) in &report.points {
            let ledger_ok = stats.faults_injected
                == stats.faults_corrected + stats.faults_uncorrectable + stats.faults_latent;
            if !ledger_ok {
                eprintln!("error: fault ledger out of balance at `{label}`");
                return Err(ExitCode::FAILURE);
            }
            let scrubbing = table.value(label, "scrub_interval") != Some(0.0);
            if scrubbing && stats.scrub_reads_completed == 0 {
                eprintln!("error: scrubbing enabled but idle at `{label}`");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if wants(&["trace", "all"]) {
        if golden_regen {
            match regenerate_golden_trace() {
                Ok(path) => eprintln!("regenerated {}", path.display()),
                Err(e) => {
                    eprintln!("error: golden trace regeneration failed: {e}");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        let report = finished(exp, trace_study(&scale))?;
        write_report(
            out,
            "BENCH_trace.json",
            "trace_record_replay",
            &report,
            &meta,
            &csv_dir,
        )?;
    }
    Ok(())
}
