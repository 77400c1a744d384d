//! Provenance metadata stamped into every `BENCH_*.json` report.
//!
//! Benchmark numbers are only comparable when the run conditions are known,
//! so every report carries a `meta` block recording the host parallelism,
//! the cargo profile the harness was compiled under, the workspace version
//! (a `git describe` string passed in by the caller — the harness never
//! shells out to `git` itself), and which run-length preset produced the
//! numbers. [`RunMeta::to_json`] is that block;
//! [`Report::to_json`](crate::report::Report::to_json) writes it as the
//! report's first member.

/// Environment variable through which CI (or a developer) passes the
/// workspace `git describe` string; the `--git-describe` flag overrides it.
pub const GIT_DESCRIBE_ENV: &str = "REPRO_GIT_DESCRIBE";

/// The provenance block every `BENCH_*.json` report is stamped with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Hardware threads available on the host that produced the numbers.
    pub host_nproc: usize,
    /// Cargo profile the harness was compiled under (`release` or `debug`).
    pub cargo_profile: &'static str,
    /// Workspace `git describe` string, as passed in via `--git-describe`
    /// or [`GIT_DESCRIBE_ENV`]; `unknown` when neither is set.
    pub git_describe: String,
    /// The run-length preset (`quick`, `standard`, `full`), suffixed with
    /// `+overrides` when `--measure`/`--warmup`/`--seed`/`--threads`
    /// deviated from the preset.
    pub scale: String,
}

impl RunMeta {
    /// Collects the metadata for a run at `scale`. `scale_label` is the
    /// preset name the CLI resolved (including any `+overrides` marker);
    /// `git_describe` is the explicit flag value, falling back to
    /// [`GIT_DESCRIBE_ENV`] and then `unknown`.
    #[must_use]
    pub fn collect(scale_label: &str, git_describe: Option<&str>) -> Self {
        Self {
            host_nproc: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cargo_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_describe: git_describe
                .map(str::to_owned)
                .or_else(|| std::env::var(GIT_DESCRIBE_ENV).ok())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_owned()),
            scale: scale_label.to_owned(),
        }
    }

    /// The `"meta": {...}` JSON object (no trailing comma or newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "\"meta\": {{\"host_nproc\": {}, \"cargo_profile\": \"{}\", \
             \"git_describe\": \"{}\", \"scale\": \"{}\"}}",
            self.host_nproc,
            self.cargo_profile,
            cloudmc_sim::json_escape(&self.git_describe),
            cloudmc_sim::json_escape(&self.scale)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_fills_every_field() {
        let meta = RunMeta::collect("standard", Some("v0.2.0-12-gabcdef"));
        assert!(meta.host_nproc >= 1);
        assert!(meta.cargo_profile == "debug" || meta.cargo_profile == "release");
        assert_eq!(meta.git_describe, "v0.2.0-12-gabcdef");
        assert_eq!(meta.scale, "standard");
    }

    #[test]
    fn explicit_flag_beats_environment_and_absence_means_unknown() {
        let explicit = RunMeta::collect("quick", Some("explicit"));
        assert_eq!(explicit.git_describe, "explicit");
        // Absent flag and (in the test environment) unset variable.
        if std::env::var(GIT_DESCRIBE_ENV).is_err() {
            let fallback = RunMeta::collect("quick", None);
            assert_eq!(fallback.git_describe, "unknown");
        }
    }

    #[test]
    fn quotes_in_describe_strings_are_escaped() {
        let mut meta = RunMeta::collect("quick", Some("v1"));
        meta.git_describe = "weird\"tag".to_owned();
        assert!(meta.to_json().contains("weird\\\"tag"));
        // A describe string read from a file keeps its trailing newline.
        meta.git_describe = "v1\n".to_owned();
        let json = meta.to_json();
        assert!(json.contains("\"git_describe\": \"v1\\n\""), "{json}");
        assert!(json.bytes().all(|b| b >= 0x20));
    }
}
