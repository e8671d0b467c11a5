//! A [`CommitFs`] that counts and times every durable-write step it
//! forwards to [`DiskFs`], so journal and manifest commits are measured
//! from outside the program (it is passed in through `RunOptions::fs`
//! and the `*_with` store functions).

use cac_trace::io::commitfs::{CommitFs, DiskFs};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::spans;

/// Counters of the durable-write steps seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    /// `sync_file` plus `sync_dir` calls.
    pub fsyncs: u64,
    /// Time spent in them, ns.
    pub fsync_ns: u64,
    /// `rename` calls.
    pub renames: u64,
    /// Bytes written through `write_file`.
    pub bytes: u64,
}

/// Counting pass-through to [`DiskFs`]. The counters are statistics
/// only, so `Relaxed` ordering suffices.
#[derive(Debug, Default)]
pub struct CountingFs {
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    renames: AtomicU64,
    bytes: AtomicU64,
}

impl CountingFs {
    /// Current counter values.
    pub fn counts(&self) -> FsCounts {
        FsCounts {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsync_ns: self.fsync_ns.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn timed_sync(&self, f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let start = Instant::now();
        let out = spans::span("trace.commitfs.fsync", f);
        self.fsync_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl CommitFs for CountingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        DiskFs.create(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        spans::span("trace.commitfs.write", || DiskFs.write_file(path, bytes))
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.timed_sync(|| DiskFs.sync_file(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.renames.fetch_add(1, Ordering::Relaxed);
        spans::span("trace.commitfs.rename", || DiskFs.rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed_sync(|| DiskFs.sync_dir(dir))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        DiskFs.remove_file(path)
    }
}
