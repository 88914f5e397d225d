//! Crash-safe replacement of a state file.
//!
//! A state file is only ever replaced whole: the new contents go to
//! `<path>.tmp`, are flushed and synced, and are renamed over `path`. A
//! failed or interrupted save leaves the previous file as it was; a
//! leftover `.tmp` is never read and the next save overwrites it.

use crate::Result;
use std::ffi::OsString;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Where [`write_atomically`] stages the new contents of `path`.
fn staging_path(path: &Path) -> PathBuf {
    let mut name = OsString::from(path.as_os_str());
    name.push(".tmp");
    PathBuf::from(name)
}

/// Replaces the file at `path` with what `write` produces, or leaves it
/// untouched and returns the error: a write error, or one a buffered
/// last chunk only meets when flushed (disk full).
pub fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<()>,
) -> Result<()> {
    let staging = staging_path(path);
    if let Err(e) = stage(&staging, write) {
        let _ = std::fs::remove_file(&staging);
        return Err(e);
    }
    std::fs::rename(&staging, path)?;
    // The rename is durable once the directory entry is.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// Writes, flushes and syncs the staging file.
fn stage(staging: &Path, write: impl FnOnce(&mut BufWriter<File>) -> Result<()>) -> Result<()> {
    let mut out = BufWriter::new(File::create(staging)?);
    write(&mut out)?;
    out.flush()?;
    out.get_ref().sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HermesError;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hermes-atomic-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_the_file_and_leaves_no_staging_file() {
        let dir = scratch_dir("ok");
        let path = dir.join("state.db");
        write_atomically(&path, |out| Ok(out.write_all(b"one")?)).unwrap();
        write_atomically(&path, |out| Ok(out.write_all(b"two")?)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!staging_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_that_fails_part_way_keeps_the_previous_file() {
        let dir = scratch_dir("fail");
        let path = dir.join("state.db");
        write_atomically(&path, |out| Ok(out.write_all(b"good")?)).unwrap();
        let err = write_atomically(&path, |out| {
            out.write_all(b"torn")?;
            Err(HermesError::Io("disk full".into()))
        })
        .unwrap_err();
        assert!(err.to_string().contains("disk full"));
        assert_eq!(std::fs::read(&path).unwrap(), b"good");
        assert!(!staging_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
