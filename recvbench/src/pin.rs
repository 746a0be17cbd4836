//! Thread placement. On a two-CPU host the scheduler flips, every
//! second or so, between putting the driver and the active shard on
//! separate CPUs and putting them on one; the two placements differ by
//! about 1.5× in frames per second. The benchmark fixes the placement
//! instead of sampling the scheduler's mood: a thread inherits its
//! creator's CPU mask, so the driver sets its own mask before each
//! shard thread is spawned and again before it plays.

use std::io;

/// CPU mask words (1024 CPUs, the kernel's default `cpu_set_t`).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, ascending.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Restricts the calling thread (and threads it spawns from now on) to
/// `cpu`.
pub fn to(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
