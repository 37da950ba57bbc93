//! Extension-driven graph loading and saving: thin error-formatting
//! wrappers over [`tigr_graph::io::load_path`]/[`tigr_graph::io::save_path`].

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use tigr_graph::{io, Csr};

/// Loads a graph, picking the parser from the file extension:
/// `.bin`/`.tigr` → binary, `.mtx` → MatrixMarket, `.gr` → DIMACS,
/// anything else → whitespace edge list.
///
/// # Errors
///
/// Returns a human-readable message on I/O or parse failure.
pub fn load_graph(path: &str) -> Result<Csr, String> {
    io::load_path(path).map_err(|e| format!("cannot load {path}: {e}"))
}

/// Saves a graph, picking the writer from the file extension (same
/// mapping as [`load_graph`], plus `.mtx` → MatrixMarket). The graph is
/// written to a uniquely named temporary file beside `path` and renamed
/// into place, so a reader never sees a partial file and concurrent
/// writers of one path never interleave.
///
/// # Errors
///
/// Returns a human-readable message on I/O failure.
pub fn save_graph(g: &Csr, path: &str) -> Result<(), String> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let target = Path::new(path);
    let name = target
        .file_name()
        .ok_or_else(|| format!("cannot write {path}: not a file name"))?;
    // The temporary name ends with the target's, so its extension picks
    // the same writer.
    let tmp = target.with_file_name(format!(
        ".tmp{}-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        name.to_string_lossy()
    ));
    let written = io::save_path(g, &tmp)
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::rename(&tmp, target).map_err(|e| e.to_string()));
    written.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot write {path}: {e}")
    })
}

/// A private scratch directory for one test, removed on drop: the
/// crate's tests run in parallel, so no two may share a path.
#[cfg(test)]
pub(crate) struct TestDir(std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    pub(crate) fn new() -> TestDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tigr_cli_test_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the test directory");
        TestDir(dir)
    }

    /// `name` inside the directory, as a command-line argument.
    pub(crate) fn file(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("temp paths are UTF-8")
            .to_string()
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::CsrBuilder;

    #[test]
    fn round_trips_by_extension() {
        let dir = TestDir::new();
        let g = CsrBuilder::new(3)
            .weighted_edge(0, 1, 5)
            .weighted_edge(1, 2, 7)
            .build();
        for name in ["g.bin", "g.txt", "g.gr", "g.mtx"] {
            let path = dir.file(name);
            save_graph(&g, &path).unwrap();
            assert_eq!(load_graph(&path).unwrap(), g, "{name}");
        }
        // Each save renamed its temporary file away.
        let mut names: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["g.bin", "g.gr", "g.mtx", "g.txt"]);
    }

    #[test]
    fn load_missing_file_reports_path() {
        let err = load_graph("/nonexistent/g.txt").unwrap_err();
        assert!(err.contains("/nonexistent/g.txt"));
    }
}
