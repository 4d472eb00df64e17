//! Thread placement: the host's CPU count and a best-effort CPU pin.
//!
//! The service's core loops and the `svcbench` generator pin themselves
//! with [`pin_current_thread`]; every auto-sizing decision reads
//! [`host_cpus`]. Reductions are serial, so nothing here changes what
//! any thread computes.

/// Number of CPUs the host reports, with a floor of 1 when the query
/// fails. The single source for every auto-sizing decision (event-loop
/// thread counts, bench gates), so a cgroup/affinity-limited host is
/// respected consistently.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Best-effort round-robin CPU-affinity hint: pins the calling thread to
/// `cpu % host_cpus()`. Returns `true` if the kernel accepted the mask.
///
/// Linux-only (`sched_setaffinity` on the current thread); on other
/// platforms this is a no-op returning `false`. A hint, not a
/// guarantee — callers must behave identically whether or not the pin
/// took effect (it only shifts *where* threads run, never *what* they
/// compute).
pub fn pin_current_thread(cpu: usize) -> bool {
    affinity::pin(cpu % host_cpus())
}

/// The crate's one `unsafe` block: the `sched_setaffinity` FFI call.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod affinity {
    /// One `cpu_set_t` worth of mask words (1024 bits, glibc's default).
    const MASK_WORDS: usize = 1024 / (8 * std::mem::size_of::<usize>());

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const usize) -> i32;
    }

    pub fn pin(cpu: usize) -> bool {
        let mut mask = [0usize; MASK_WORDS];
        let bits = 8 * std::mem::size_of::<usize>();
        if cpu / bits >= MASK_WORDS {
            return false;
        }
        mask[cpu / bits] |= 1usize << (cpu % bits);
        // SAFETY: `mask` is a live, initialized array and `cpusetsize` is
        // its exact size in bytes, so the kernel reads only valid memory;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

/// No settings: the argument type of `svcbench`'s
/// `Broker::new(…, None, ParConfig::default())` call shape, kept until
/// the benchmark drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParConfig;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_a_hint_and_wraps_out_of_range_cpus() {
        assert!(host_cpus() >= 1);
        // Out-of-range CPUs wrap via the modulo rather than erroring;
        // whether the kernel takes the pin is the host's business.
        let _ = pin_current_thread(usize::MAX);
        let _ = pin_current_thread(host_cpus());
    }
}
