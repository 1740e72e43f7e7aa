//! Storage backends and deterministic fault injection for the persistence
//! layer.
//!
//! Everything [`crate::persist`] does to stable storage goes through the
//! small, object-safe [`StorageBackend`] trait: append-only writes, fsync,
//! atomic rename, directory fsync, truncation. Production code uses
//! [`FsBackend`] (thin wrappers over `std::fs`); the crash-consistency
//! suite uses [`FaultyBackend`], a deterministic in-memory filesystem that
//! can inject short writes, fail-at-byte-N, fsync failures, rename
//! failures, and simulated crash points — and, after a "crash", hand the
//! surviving bytes to a rebooted backend so recovery can be tested against
//! exactly the state a dead process would have left behind.
//!
//! The fault model is a *process* crash: bytes handed to a successful
//! `append` survive (the kernel eventually writes its page cache), while
//! the append that straddles the crash point is torn — its prefix up to
//! the crash byte is kept, the rest is lost, and every subsequent call on
//! the backend fails. `sync_file` still matters: it is how fsync failures
//! are surfaced, and how the durability ladder is measured (the
//! [`FaultyBackend`] counts syncs so tests can pin that `Buffered` never
//! fsyncs and `FsyncPerBatch` fsyncs once per batch).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The storage operations the persistence layer needs, kept object-safe so
/// engines, logs, and checkpoint managers can hold a `Box<dyn
/// StorageBackend>` and tests can swap in fault injection.
///
/// All paths are interpreted by the backend; [`FsBackend`] maps them to the
/// real filesystem, [`FaultyBackend`] to an in-memory map.
pub trait StorageBackend: Send {
    /// Reads the entire contents of a file.
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (or truncates to empty) a file.
    fn create(&mut self, path: &Path) -> io::Result<()>;

    /// Appends bytes to an existing file.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Truncates a file to `len` bytes (used by torn-tail repair).
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;

    /// Forces file contents to stable storage (`fsync`).
    fn sync_file(&mut self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to` (replacing `to` if it exists).
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs the directory containing `path`, making a preceding rename
    /// durable.
    fn sync_parent_dir(&mut self, path: &Path) -> io::Result<()>;

    /// Removes a file (used by checkpoint retention).
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;

    /// Whether a file exists.
    fn exists(&mut self, path: &Path) -> io::Result<bool>;

    /// The files directly inside `dir` (no recursion), in sorted order.
    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `dir` and its parents if missing.
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;

    /// A second handle onto the same storage (same files, same fault
    /// state): [`FsBackend`] is stateless, [`FaultyBackend`] shares its
    /// in-memory filesystem.
    fn clone_backend(&self) -> Box<dyn StorageBackend>;
}

// ---------------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------------

/// The production [`StorageBackend`]: thin wrappers over `std::fs` with the
/// durability primitives (`fsync`, directory `fsync`) spelled out.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsBackend;

impl StorageBackend for FsBackend {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&mut self, path: &Path) -> io::Result<()> {
        std::fs::File::create(path)?;
        Ok(())
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
        file.write_all(bytes)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        // `sync_data` (fdatasync) is the append-only-log sync: it forces
        // the file contents and the size metadata needed to read them,
        // skipping the extra journal commit `sync_all` pays for timestamps.
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.sync_data()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_parent_dir(&mut self, path: &Path) -> io::Result<()> {
        // Directory fsync is what makes a rename durable on POSIX
        // filesystems; on platforms where directories cannot be opened for
        // reading this degrades to a no-op error swallow.
        let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
            return Ok(());
        };
        match std::fs::File::open(parent) {
            Ok(dir) => dir.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&mut self, path: &Path) -> io::Result<bool> {
        Ok(path.exists())
    }

    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(entry.path());
            }
        }
        files.sort();
        Ok(files)
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn clone_backend(&self) -> Box<dyn StorageBackend> {
        Box::new(FsBackend)
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// What to break, and when. All triggers are deterministic so a failing
/// crash point reproduces exactly.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Simulate the process dying once this many bytes (cumulative across
    /// all files) have been appended: the append that crosses the limit is
    /// torn — its prefix up to the limit is kept — and every subsequent
    /// backend call fails with a "simulated crash" error.
    pub crash_at_byte: Option<u64>,
    /// Fail the append that crosses this cumulative byte count with a short
    /// write: the prefix up to the limit lands in the file, the call
    /// returns an error, and the backend keeps working (a transient `EIO` /
    /// disk-full shape, not a crash).
    pub fail_append_at_byte: Option<u64>,
    /// Fail the next N `sync_file` calls (fsync returning `EIO`).
    pub fail_fsyncs: u64,
    /// Simulate a crash at the next `rename` call: the rename does not
    /// happen (the temp file stays, the target keeps its old bytes) and the
    /// backend is dead afterwards — the atomic-snapshot crash test.
    pub crash_on_rename: bool,
    /// Fail the next N `rename` calls without crashing.
    pub fail_renames: u64,
}

#[derive(Default)]
struct FaultState {
    files: BTreeMap<PathBuf, Vec<u8>>,
    plan: FaultPlan,
    appended: u64,
    syncs: u64,
    crashed: bool,
}

/// A deterministic in-memory [`StorageBackend`] with fault injection.
///
/// Clones share the same underlying state, so a test can keep one handle
/// for inspection (`surviving`, `sync_count`) while the code under test
/// owns another. After a simulated crash, [`FaultyBackend::reboot`] clears
/// the crashed flag and the fault plan — the surviving files are exactly
/// what a restarted process would find on disk.
#[derive(Clone, Default)]
pub struct FaultyBackend {
    state: Arc<Mutex<FaultState>>,
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash (fault injection)")
}

impl FaultyBackend {
    /// A fault-free in-memory backend (inject faults later with
    /// [`FaultyBackend::inject`]).
    pub fn new() -> FaultyBackend {
        FaultyBackend::default()
    }

    /// An in-memory backend primed with a fault plan.
    pub fn with_plan(plan: FaultPlan) -> FaultyBackend {
        let backend = FaultyBackend::default();
        backend.inject(plan);
        backend
    }

    /// Replaces the fault plan (counters keep running).
    pub fn inject(&self, plan: FaultPlan) {
        self.state.lock().unwrap().plan = plan;
    }

    /// Whether a simulated crash has happened.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// The bytes of `path` as they survived on the simulated disk (readable
    /// even after a crash — this is the post-mortem view).
    pub fn surviving(&self, path: &Path) -> Option<Vec<u8>> {
        self.state.lock().unwrap().files.get(path).cloned()
    }

    /// Overwrites a file on the simulated disk directly, bypassing fault
    /// triggers — used by tests to stage crash artifacts byte-for-byte.
    pub fn plant(&self, path: &Path, bytes: Vec<u8>) {
        self.state
            .lock()
            .unwrap()
            .files
            .insert(path.to_path_buf(), bytes);
    }

    /// Clears the crashed flag and the fault plan, modelling a process
    /// restart over the surviving files. Counters reset too.
    pub fn reboot(&self) {
        let mut s = self.state.lock().unwrap();
        s.plan = FaultPlan::default();
        s.crashed = false;
        s.appended = 0;
        s.syncs = 0;
    }

    /// Number of `sync_file` calls (fsyncs) attempted so far.
    pub fn sync_count(&self) -> u64 {
        self.state.lock().unwrap().syncs
    }

    /// Cumulative bytes successfully appended across all files.
    pub fn bytes_appended(&self) -> u64 {
        self.state.lock().unwrap().appended
    }
}

impl FaultState {
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_error())
        } else {
            Ok(())
        }
    }
}

impl StorageBackend for FaultyBackend {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.state.lock().unwrap();
        s.check_alive()?;
        s.files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display())))
    }

    fn create(&mut self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        s.files.insert(path.to_path_buf(), Vec::new());
        Ok(())
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        if !s.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", path.display()),
            ));
        }
        // Torn-write triggers: keep the prefix up to the fault byte, then
        // either crash (all future calls fail) or report a short write.
        let end = s.appended + bytes.len() as u64;
        if let Some(limit) = s.plan.crash_at_byte {
            if end > limit {
                let keep = limit.saturating_sub(s.appended) as usize;
                s.appended = limit;
                let file = s.files.get_mut(path).expect("checked above");
                file.extend_from_slice(&bytes[..keep]);
                s.crashed = true;
                return Err(crash_error());
            }
        }
        if let Some(limit) = s.plan.fail_append_at_byte {
            if end > limit {
                let keep = limit.saturating_sub(s.appended) as usize;
                s.appended = limit;
                let file = s.files.get_mut(path).expect("checked above");
                file.extend_from_slice(&bytes[..keep]);
                s.plan.fail_append_at_byte = None;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "simulated short write (fault injection)",
                ));
            }
        }
        s.appended = end;
        let file = s.files.get_mut(path).expect("checked above");
        file.extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        match s.files.get_mut(path) {
            Some(file) => {
                file.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", path.display()),
            )),
        }
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        s.syncs += 1;
        if !s.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", path.display()),
            ));
        }
        if s.plan.fail_fsyncs > 0 {
            s.plan.fail_fsyncs -= 1;
            return Err(io::Error::other(
                "simulated fsync failure (fault injection)",
            ));
        }
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        if s.plan.crash_on_rename {
            s.crashed = true;
            return Err(crash_error());
        }
        if s.plan.fail_renames > 0 {
            s.plan.fail_renames -= 1;
            return Err(io::Error::other(
                "simulated rename failure (fault injection)",
            ));
        }
        match s.files.remove(from) {
            Some(bytes) => {
                s.files.insert(to.to_path_buf(), bytes);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", from.display()),
            )),
        }
    }

    fn sync_parent_dir(&mut self, _path: &Path) -> io::Result<()> {
        let s = self.state.lock().unwrap();
        s.check_alive()
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        match s.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", path.display()),
            )),
        }
    }

    fn exists(&mut self, path: &Path) -> io::Result<bool> {
        let s = self.state.lock().unwrap();
        s.check_alive()?;
        Ok(s.files.contains_key(path))
    }

    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.lock().unwrap();
        s.check_alive()?;
        Ok(s.files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn create_dir_all(&mut self, _dir: &Path) -> io::Result<()> {
        // Directories are implicit in the in-memory map.
        let s = self.state.lock().unwrap();
        s.check_alive()
    }

    fn clone_backend(&self) -> Box<dyn StorageBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn in_memory_files_behave_like_files() {
        let mut b = FaultyBackend::new();
        assert!(!b.exists(&p("/d/a")).unwrap());
        b.create(&p("/d/a")).unwrap();
        b.append(&p("/d/a"), b"hello ").unwrap();
        b.append(&p("/d/a"), b"world").unwrap();
        assert_eq!(b.read(&p("/d/a")).unwrap(), b"hello world");
        b.truncate(&p("/d/a"), 5).unwrap();
        assert_eq!(b.read(&p("/d/a")).unwrap(), b"hello");
        b.rename(&p("/d/a"), &p("/d/b")).unwrap();
        assert!(!b.exists(&p("/d/a")).unwrap());
        b.create(&p("/d/c")).unwrap();
        assert_eq!(b.list_dir(&p("/d")).unwrap(), vec![p("/d/b"), p("/d/c")]);
        b.remove_file(&p("/d/c")).unwrap();
        assert!(b.append(&p("/missing"), b"x").is_err());
        assert!(b.read(&p("/missing")).is_err());
        // Clones share state.
        let mut other = b.clone_backend();
        assert_eq!(other.read(&p("/d/b")).unwrap(), b"hello");
    }

    #[test]
    fn crash_at_byte_tears_the_straddling_append_and_kills_the_backend() {
        let mut b = FaultyBackend::with_plan(FaultPlan {
            crash_at_byte: Some(10),
            ..Default::default()
        });
        b.create(&p("/log")).unwrap();
        b.append(&p("/log"), b"01234567").unwrap(); // 8 bytes, under the limit
        let err = b.append(&p("/log"), b"abcdef").unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(b.crashed());
        // The torn prefix survived; everything else of the append is lost.
        assert_eq!(b.surviving(&p("/log")).unwrap(), b"01234567ab");
        // The backend is dead until reboot.
        assert!(b.read(&p("/log")).is_err());
        assert!(b.sync_file(&p("/log")).is_err());
        b.reboot();
        assert_eq!(b.read(&p("/log")).unwrap(), b"01234567ab");
    }

    #[test]
    fn short_write_fails_once_and_keeps_the_backend_alive() {
        let mut b = FaultyBackend::with_plan(FaultPlan {
            fail_append_at_byte: Some(4),
            ..Default::default()
        });
        b.create(&p("/log")).unwrap();
        let err = b.append(&p("/log"), b"abcdefgh").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(!b.crashed());
        assert_eq!(b.surviving(&p("/log")).unwrap(), b"abcd");
        // The fault is one-shot: the retry goes through (appending again).
        b.append(&p("/log"), b"efgh").unwrap();
        assert_eq!(b.read(&p("/log")).unwrap(), b"abcdefgh");
    }

    #[test]
    fn fsync_and_rename_faults_fire_then_clear() {
        let mut b = FaultyBackend::with_plan(FaultPlan {
            fail_fsyncs: 1,
            fail_renames: 1,
            ..Default::default()
        });
        b.create(&p("/f")).unwrap();
        assert!(b.sync_file(&p("/f")).is_err());
        b.sync_file(&p("/f")).unwrap();
        assert_eq!(b.sync_count(), 2);
        assert!(b.rename(&p("/f"), &p("/g")).is_err());
        assert!(b.exists(&p("/f")).unwrap(), "failed rename must not move");
        b.rename(&p("/f"), &p("/g")).unwrap();
        assert!(!b.crashed());
    }

    #[test]
    fn crash_on_rename_leaves_both_files_untouched() {
        let mut b = FaultyBackend::new();
        b.create(&p("/snap")).unwrap();
        b.append(&p("/snap"), b"old").unwrap();
        b.create(&p("/snap.tmp")).unwrap();
        b.append(&p("/snap.tmp"), b"new").unwrap();
        b.inject(FaultPlan {
            crash_on_rename: true,
            ..Default::default()
        });
        assert!(b.rename(&p("/snap.tmp"), &p("/snap")).is_err());
        assert!(b.crashed());
        assert_eq!(b.surviving(&p("/snap")).unwrap(), b"old");
        assert_eq!(b.surviving(&p("/snap.tmp")).unwrap(), b"new");
    }

    #[test]
    fn fs_backend_round_trips_real_files() {
        let dir = std::env::temp_dir().join(format!("deltanet-fault-fs-{}", std::process::id()));
        let mut b = FsBackend;
        b.create_dir_all(&dir).unwrap();
        let f = dir.join("a.bin");
        b.create(&f).unwrap();
        b.append(&f, b"abc").unwrap();
        b.append(&f, b"def").unwrap();
        b.sync_file(&f).unwrap();
        assert_eq!(b.read(&f).unwrap(), b"abcdef");
        b.truncate(&f, 4).unwrap();
        assert_eq!(b.read(&f).unwrap(), b"abcd");
        let g = dir.join("b.bin");
        b.rename(&f, &g).unwrap();
        b.sync_parent_dir(&g).unwrap();
        assert!(b.exists(&g).unwrap() && !b.exists(&f).unwrap());
        assert_eq!(b.list_dir(&dir).unwrap(), vec![g.clone()]);
        b.remove_file(&g).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
