//! File sinks for telemetry output.
//!
//! The simulation crates never touch the filesystem (`clippy.toml`
//! disallows `std::fs` there): anything that turns telemetry records into
//! files lives here, behind a typed `io::Result`.

use std::io::Write as _;
use std::path::Path;

/// Writes one JSON-lines file: each item becomes one line. The file is
/// created (or truncated) atomically with respect to partial content — the
/// whole body is buffered before the single write.
///
/// # Errors
///
/// Propagates the underlying I/O error on create/write failure.
pub fn write_jsonl_file<I, S>(path: &Path, lines: I) -> std::io::Result<()>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut body = String::new();
    for line in lines {
        body.push_str(line.as_ref());
        body.push('\n');
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_written_one_per_record() {
        let dir = std::env::temp_dir().join("cloudmc_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        write_jsonl_file(&path, ["{\"a\":1}", "{\"a\":2}"]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"a\":2}\n");
        std::fs::remove_file(&path).ok();
    }
}
