//! Where the benchmark writes: traces and temporary data directories live
//! under `<target dir>/pvbench`, inside the checkout it was started from and
//! already covered by the root `.gitignore`.

use std::path::{Path, PathBuf};

/// `$CARGO_TARGET_DIR/pvbench` (the driver sets it), else `target/pvbench`.
pub fn dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("pvbench")
}

/// A directory removed when the guard drops — on success, on a failed gate,
/// and while unwinding from a panic alike.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<scratch>/tmp-<label>-<pid>` (emptying any stale leftover).
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let path = dir().join(format!("tmp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let kept = {
            let tmp = TempDir::new("unit").unwrap();
            std::fs::write(tmp.path().join("f"), b"x").unwrap();
            assert!(tmp.path().starts_with(dir()));
            tmp.path().to_path_buf()
        };
        assert!(!kept.exists());

        let unwound = std::panic::catch_unwind(|| {
            let tmp = TempDir::new("unit-panic").unwrap();
            let path = tmp.path().to_path_buf();
            std::panic::resume_unwind(Box::new(path));
        });
        let path = *unwound.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
    }
}
