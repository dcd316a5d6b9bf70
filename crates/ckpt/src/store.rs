//! The on-disk checkpoint store: crash-safe writes, rotation, and
//! corrupt-fallback loading.
//!
//! Files are named `ckpt-NNNNNNNN.fdck` (zero-padded epoch cursor).
//! A save follows the classic durable-write protocol:
//!
//! 1. serialise to `ckpt-NNNNNNNN.fdck.tmp`
//! 2. `fsync` the temp file
//! 3. atomically `rename` it over the final name
//! 4. `fsync` the directory so the rename itself is durable
//!
//! A crash at any point leaves either the previous state or the new
//! file complete — never a half-written `ckpt-*.fdck` under the final
//! name. Even if the filesystem reorders writes (or `FD_FAULT`
//! injects a torn write), the per-section CRC catches the damage at
//! load time and [`CheckpointStore::load_latest`] falls back to the
//! newest older file that verifies.

use crate::fault;
use crate::format::{CkptError, TrainCheckpoint};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Extension used by checkpoint files.
pub const EXTENSION: &str = "fdck";

/// A rotation-managed directory of checkpoint files.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

/// Outcome of [`CheckpointStore::load_latest`].
#[derive(Debug)]
pub struct Loaded {
    /// The newest checkpoint that decoded and checksum-verified.
    pub checkpoint: TrainCheckpoint,
    /// File it came from.
    pub path: PathBuf,
    /// Newer files that were skipped as corrupt/unreadable, newest
    /// first, with the reason each was rejected.
    pub skipped: Vec<(PathBuf, String)>,
}

impl CheckpointStore {
    /// Opens (creating if needed) `dir` as a checkpoint store keeping
    /// the newest `keep` files after each save. `keep` is clamped to
    /// at least 2 so a corrupt latest always has a fallback.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep: keep.max(2) })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path for a given epoch cursor.
    pub fn path_for_epoch(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{epoch:08}.{EXTENSION}"))
    }

    /// Durably writes `ckpt` (named by its epoch cursor), then rotates
    /// old files down to the keep limit. Returns the final path.
    pub fn save(&self, ckpt: &TrainCheckpoint) -> Result<PathBuf, CkptError> {
        let bytes = ckpt.to_bytes();
        let final_path = self.path_for_epoch(ckpt.epoch);
        let tmp_path = final_path.with_extension(format!("{EXTENSION}.tmp"));

        if let Some(err) = fault::io_error("checkpoint save") {
            return Err(err.into());
        }
        // FD_FAULT torn-write: persist a truncated prefix but complete
        // the rename, simulating power loss mid-write on a filesystem
        // that committed the rename first. The CRC layer must refuse
        // this file and load_latest must fall back.
        let write_bytes = if fault::torn_write() { &bytes[..bytes.len() / 2] } else { &bytes[..] };

        {
            let mut tmp = std::fs::File::create(&tmp_path)?;
            tmp.write_all(write_bytes)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        // Make the rename itself durable: fsync the directory entry.
        // Some platforms refuse to fsync a directory handle; that is a
        // durability gap, not corruption, so ignore the failure.
        if let Ok(dirfd) = std::fs::File::open(&self.dir) {
            let _ = dirfd.sync_all();
        }

        self.rotate()?;
        Ok(final_path)
    }

    /// Removes all but the newest `keep` checkpoint files. Stale
    /// `.tmp` files from interrupted saves are always removed.
    fn rotate(&self) -> Result<(), CkptError> {
        let mut files = self.list()?;
        // list() is newest-first.
        for (_, path) in files.drain(..).skip(self.keep) {
            let _ = std::fs::remove_file(path);
        }
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// Checkpoint files present, as `(epoch, path)` newest-first.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, CkptError> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            let Some(num) = stem.strip_prefix("ckpt-") else { continue };
            let Ok(epoch) = num.parse::<u64>() else { continue };
            files.push((epoch, path));
        }
        files.sort_by_key(|b| std::cmp::Reverse(b.0));
        Ok(files)
    }

    /// Loads the newest checkpoint that passes every checksum, walking
    /// backwards past corrupt or unreadable files. `Ok(None)` means the
    /// store holds no checkpoint at all; `Err` means files exist but
    /// none verified.
    pub fn load_latest(&self) -> Result<Option<Loaded>, CkptError> {
        let files = self.list()?;
        if files.is_empty() {
            return Ok(None);
        }
        let mut skipped = Vec::new();
        for (_, path) in files {
            match load_file(&path) {
                Ok(checkpoint) => {
                    return Ok(Some(Loaded { checkpoint, path, skipped }));
                }
                Err(why) => skipped.push((path, why.to_string())),
            }
        }
        let detail = skipped
            .iter()
            .map(|(p, why)| format!("{}: {why}", p.display()))
            .collect::<Vec<_>>()
            .join("; ");
        Err(CkptError::Corrupt(format!("no valid checkpoint in store ({detail})")))
    }
}

/// Reads and fully verifies one checkpoint file.
pub fn load_file(path: &Path) -> Result<TrainCheckpoint, CkptError> {
    if let Some(err) = fault::io_error("checkpoint load") {
        return Err(err.into());
    }
    let bytes = std::fs::read(path)?;
    TrainCheckpoint::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::format::TensorEntry;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The fault spec is process-global: tests that install one must
    /// not interleave, and tests that save or load must not run while
    /// one is armed, or they consume its fault.
    fn fault_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fd-ckpt-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ckpt(epoch: u64) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch,
            opt_step: epoch,
            lr: 0.03,
            seed: 1,
            config_fingerprint: "fp".into(),
            params: vec![TensorEntry::from_f32("w", 1, 2, &[epoch as f32, 1.0])],
            ..TrainCheckpoint::default()
        }
    }

    #[test]
    fn save_load_and_rotation() {
        let _guard = fault_lock();
        let dir = tmpdir("rotate");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        for epoch in 1..=6 {
            store.save(&ckpt(epoch)).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![6, 5, 4]);
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.checkpoint.epoch, 6);
        assert!(loaded.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_good() {
        let _guard = fault_lock();
        let dir = tmpdir("fallback");
        let store = CheckpointStore::open(&dir, 4).unwrap();
        store.save(&ckpt(1)).unwrap();
        store.save(&ckpt(2)).unwrap();
        let latest = store.save(&ckpt(3)).unwrap();

        // Flip a byte in the newest file's tail (inside a payload).
        let mut bytes = std::fs::read(&latest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&latest, &bytes).unwrap();

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.checkpoint.epoch, 2);
        assert_eq!(loaded.skipped.len(), 1);
        assert!(loaded.skipped[0].1.contains("checksum"), "{}", loaded.skipped[0].1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_latest_falls_back() {
        let _guard = fault_lock();
        let dir = tmpdir("truncate");
        let store = CheckpointStore::open(&dir, 4).unwrap();
        store.save(&ckpt(1)).unwrap();
        let latest = store.save(&ckpt(2)).unwrap();
        let bytes = std::fs::read(&latest).unwrap();
        std::fs::write(&latest, &bytes[..bytes.len() / 3]).unwrap();

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.checkpoint.epoch, 1);
        assert_eq!(loaded.skipped.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_an_error_and_empty_is_none() {
        let _guard = fault_lock();
        let dir = tmpdir("allbad");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let path = store.save(&ckpt(1)).unwrap();
        std::fs::write(&path, b"FDCKgarbage").unwrap();
        let err = store.load_latest().unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_is_caught_by_checksum() {
        let _guard = fault_lock();
        let dir = tmpdir("torn");
        let store = CheckpointStore::open(&dir, 4).unwrap();
        store.save(&ckpt(1)).unwrap();

        // Second save is torn: half the bytes land, rename completes.
        fault::set_spec(Some(FaultSpec { torn_write_nth: Some(1), ..FaultSpec::default() }));
        store.save(&ckpt(2)).unwrap();
        fault::set_spec(None);

        assert!(store.path_for_epoch(2).exists(), "torn file should exist under final name");
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.checkpoint.epoch, 1, "must fall back past the torn file");
        assert_eq!(loaded.skipped.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_error_surfaces_as_io() {
        let _guard = fault_lock();
        let dir = tmpdir("ioerr");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        fault::set_spec(Some(FaultSpec { io_error_nth: Some(1), ..FaultSpec::default() }));
        let err = store.save(&ckpt(1)).unwrap_err();
        fault::set_spec(None);
        assert!(matches!(err, CkptError::Io(_)), "{err}");
        assert!(err.to_string().contains("FD_FAULT"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_tmp_is_cleaned_up_and_ignored() {
        let _guard = fault_lock();
        let dir = tmpdir("tmpclean");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        // A stale temp file from a crashed writer.
        std::fs::write(dir.join("ckpt-00000009.fdck.tmp"), b"partial").unwrap();
        store.save(&ckpt(1)).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stale tmp files must be swept");
        assert_eq!(store.load_latest().unwrap().unwrap().checkpoint.epoch, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saved_bytes_are_deterministic() {
        // Byte-for-byte identical files for identical state — the CI
        // crash-recovery job diffs control vs resumed checkpoints.
        let a = ckpt(5).to_bytes();
        let b = ckpt(5).to_bytes();
        assert_eq!(a, b);
    }
}
