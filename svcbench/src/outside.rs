//! Counters read from outside the service: a counting global allocator
//! and `/proc` readers for per-thread CPU time, context switches and
//! resident memory. The load generator marks its own thread so every
//! figure here is the service's share alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations made by every thread except the load generator.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static GENERATOR: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    // `try_with` fails only while the thread is being torn down; such
    // late frees-and-allocs are not request work, so they go uncounted.
    if GENERATOR.try_with(|g| !g.get()).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counting touches only atomics and a
// const-initialised thread local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Marks the calling thread as the load generator: its allocations stop
/// counting and [`service_cpu_ns`] leaves its CPU time out.
pub fn mark_generator() {
    GENERATOR.with(|g| g.set(true));
}

/// Allocations and bytes requested by service threads so far.
pub fn service_allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The calling thread's kernel task id.
pub fn current_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

fn tasks() -> Vec<(u64, PathBuf)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse().ok()?;
        Some((tid, e.path()))
    })
    .collect()
}

/// On-CPU nanoseconds of one task, from `schedstat`.
fn task_cpu_ns(task: &Path) -> u64 {
    fs::read_to_string(task.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Summed on-CPU nanoseconds of every thread of this process except
/// `generator`.
pub fn service_cpu_ns(generator: u64) -> u64 {
    tasks()
        .iter()
        .filter(|(tid, _)| *tid != generator)
        .map(|(_, path)| task_cpu_ns(path))
        .sum()
}

/// The task id of the thread named `name`, if it is alive.
pub fn tid_named(name: &str) -> Option<u64> {
    tasks().into_iter().find_map(|(tid, path)| {
        let comm = fs::read_to_string(path.join("comm")).ok()?;
        (comm.trim_end() == name).then_some(tid)
    })
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Voluntary plus involuntary context switches of task `tid`.
pub fn ctx_switches(tid: u64) -> u64 {
    let Ok(text) = fs::read_to_string(format!("/proc/self/task/{tid}/status")) else {
        return 0;
    };
    status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
        + status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// `(VmRSS, VmHWM)` of this process, in KiB.
pub fn rss_kib() -> (u64, u64) {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    (
        status_field(&text, "VmRSS").unwrap_or(0),
        status_field(&text, "VmHWM").unwrap_or(0),
    )
}

/// Hands freed heap pages back to the kernel, so the next VmRSS sample
/// counts live memory rather than what earlier set-ups left in the
/// allocator.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and glibc allows it at
        // any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The filesystem type holding `path`: the longest mount point of
/// `/proc/self/mountinfo` that prefixes its canonical form.
pub fn fs_type(path: &Path) -> String {
    let Ok(canon) = path.canonicalize() else {
        return "unknown".into();
    };
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(kind)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if canon.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*kind).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_with_units() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM"), Some(2048));
        assert_eq!(status_field(text, "VmRSS"), Some(1024));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), None);
    }

    #[test]
    fn own_thread_is_visible_in_proc() {
        let tid = current_tid().expect("thread-self");
        assert!(tasks().iter().any(|(t, _)| *t == tid));
        assert!(rss_kib().0 > 0);
    }
}
