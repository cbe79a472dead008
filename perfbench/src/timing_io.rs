//! A [`StateIo`] that times and counts the checkpoint store's I/O while
//! delegating every call to [`RealIo`]. Passed to campaigns through
//! `CampaignOptions::io` in traced runs only.

use bce_statefile::{RealIo, StateIo};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct TimingIo {
    writes: AtomicU64,
    bytes: AtomicU64,
    write_ns: AtomicU64,
    rename_ns: AtomicU64,
    sync_dir_ns: AtomicU64,
    read_ns: AtomicU64,
}

/// Counters since the last [`TimingIo::take`].
#[derive(Debug, Clone, Copy)]
pub struct IoTotals {
    pub writes: u64,
    pub bytes: u64,
    pub write_ms: f64,
    pub rename_ms: f64,
    pub sync_dir_ms: f64,
    pub read_ms: f64,
}

fn timed<R>(slot: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    // Relaxed: statistics only, read after the campaign has returned.
    slot.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    r
}

impl TimingIo {
    /// Read and reset every counter.
    pub fn take(&self) -> IoTotals {
        let ms = |slot: &AtomicU64| slot.swap(0, Ordering::Relaxed) as f64 / 1e6;
        IoTotals {
            writes: self.writes.swap(0, Ordering::Relaxed),
            bytes: self.bytes.swap(0, Ordering::Relaxed),
            write_ms: ms(&self.write_ns),
            rename_ms: ms(&self.rename_ns),
            sync_dir_ms: ms(&self.sync_dir_ns),
            read_ms: ms(&self.read_ns),
        }
    }
}

impl StateIo for TimingIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        timed(&self.read_ns, || RealIo.read(path))
    }

    fn write_durable(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        timed(&self.write_ns, || RealIo.write_durable(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        timed(&self.rename_ns, || RealIo.rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        timed(&self.sync_dir_ns, || RealIo.sync_dir(dir))
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        RealIo.list_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}
