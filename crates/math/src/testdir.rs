//! Per-test scratch directories.
//!
//! A test that touches the filesystem takes a [`TestDir`]: a directory
//! of its own under the system temp dir, named from the test's name and
//! the process id, created empty and removed when the guard drops. No
//! two tests share one — not within a test binary, whose tests run
//! concurrently, and not across test binaries or concurrent runs of the
//! suite — so one test's cleanup can never delete another's files.
//!
//! # Examples
//!
//! ```
//! use wlc_math::testdir::TestDir;
//!
//! let dir = TestDir::new("doc-example");
//! std::fs::write(dir.join("a.txt"), "hello").unwrap();
//! assert!(dir.join("a.txt").exists());
//! let path = dir.path().to_path_buf();
//! drop(dir);
//! assert!(!path.exists());
//! ```

use std::path::{Path, PathBuf};

/// A scratch directory owned by one test; removed on drop.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates an empty `wlc-{name}-{pid}` directory under the system
    /// temp dir. Name it after the test, so it is unique within the
    /// binary; the pid separates concurrent runs.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created: the test cannot run without
    /// it.
    pub fn new(name: &str) -> TestDir {
        let path = std::env::temp_dir().join(format!("wlc-{name}-{}", std::process::id()));
        // A leftover from an earlier process with the same pid.
        let _ = std::fs::remove_dir_all(&path);
        // wlc-lint: allow(durable-write, reason = "per-test scratch directory, removed on drop; holds no durable state")
        if let Err(e) = std::fs::create_dir_all(&path) {
            panic!("cannot create test directory {}: {e}", path.display());
        }
        TestDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, rel: impl AsRef<Path>) -> PathBuf {
        self.path.join(rel)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
