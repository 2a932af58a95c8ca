//! JSON-lines artifact files for machine-readable results.
//!
//! Every figure run writes `results/<figure>.jsonl` next to its text
//! table: one JSON object per line, flat keys, stable key order (the
//! insertion order of [`memsim_types::json::JsonObj`], the workspace's one
//! JSON implementation).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Writes `lines` to `dir/<name>.jsonl` (creating `dir` as needed) and
/// returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_jsonl(dir: &Path, name: &str, lines: &[String]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut body = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        body.push_str(line);
        body.push('\n');
    }
    fs::write(&path, body)?;
    Ok(path)
}

/// The default artifact directory: `$BUMBLEBEE_RESULTS_DIR` or
/// `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BUMBLEBEE_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_jsonl_creates_dir_and_file() {
        let dir = std::env::temp_dir().join(format!("jsonl-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path =
            write_jsonl(&dir.join("nested"), "fig8", &["{}".to_string(), "{}".to_string()])
                .unwrap();
        let body = fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{}\n{}\n");
        assert!(path.ends_with("nested/fig8.jsonl"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
