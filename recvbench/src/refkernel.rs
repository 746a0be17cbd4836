//! The drift reference: a fixed workload the benchmark owns outright,
//! shaped like the receiver's own — a driver thread hands small SHA-256
//! jobs one at a time through a mutex-and-condvar queue to a helper on
//! the shard CPU, then spins until the helper has finished them. It
//! calls no program code, so a speed-up in the program (crypto, queue
//! or handoff) cannot cancel itself out by speeding the reference up
//! too; it only tracks how fast the host runs this shape of work. A
//! single-threaded kernel does not: on a shared two-vCPU host the cost
//! of waking an idle vCPU swings by ~1.7× on its own.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Jobs handed over per reference interval (a flooded interval's
/// frames).
const JOBS: u64 = 41;

/// Reference intervals per [`Pipeline::time_ns`] call: about 1 ms.
const INTERVALS: u64 = 16;

/// Compressions per job on the driver side (about one ingest).
const DRIVER_ROUNDS: usize = 2;

/// Compressions per job on the helper side (about one decode + verify).
const HELPER_ROUNDS: usize = 5;

fn compress(state: &mut [u32; 8], block: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One job's worth of hashing: `rounds` chained compressions.
fn work(rounds: usize) {
    let mut state = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut block = [0u32; 16];
    for _ in 0..rounds {
        block[..8].copy_from_slice(&state);
        compress(&mut state, black_box(&block));
    }
    black_box(state);
}

#[derive(Default)]
struct Queue {
    posted: u64,
    stop: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    done: AtomicU64,
}

/// The reference pipeline: a helper thread waiting for jobs.
pub struct Pipeline {
    shared: Arc<Shared>,
    helper: Option<JoinHandle<()>>,
}

impl Pipeline {
    /// Starts the helper, on `cpu` when given.
    pub fn spawn(cpu: Option<usize>) -> std::io::Result<Self> {
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let helper = std::thread::Builder::new()
            .name("recvbench-ref".into())
            .spawn(move || {
                if let Some(cpu) = cpu {
                    // Unpinned, the reference still runs; it just
                    // tracks whichever CPU the helper lands on.
                    let _ = crate::pin::to(cpu);
                }
                serve(&theirs);
            })?;
        Ok(Self {
            shared,
            helper: Some(helper),
        })
    }

    /// Runs the reference once and returns its wall time in ns.
    pub fn time_ns(&self) -> u64 {
        let shared = &self.shared;
        let start = Instant::now();
        let mut target = shared.done.load(Ordering::SeqCst);
        for _ in 0..INTERVALS {
            for _ in 0..JOBS {
                work(DRIVER_ROUNDS);
                shared
                    .queue
                    .lock()
                    .expect("reference queue poisoned")
                    .posted += 1;
                shared.ready.notify_one();
            }
            target += JOBS;
            while shared.done.load(Ordering::SeqCst) < target {
                std::thread::yield_now();
            }
        }
        start.elapsed().as_nanos() as u64
    }
}

/// The helper's loop: take one posted job at a time, hash, count it
/// done.
fn serve(shared: &Shared) {
    let mut taken = 0;
    loop {
        let mut queue = shared.queue.lock().expect("reference queue poisoned");
        while queue.posted == taken && !queue.stop {
            queue = shared.ready.wait(queue).expect("reference queue poisoned");
        }
        if queue.stop {
            return;
        }
        taken += 1;
        drop(queue);
        work(HELPER_ROUNDS);
        shared.done.fetch_add(1, Ordering::SeqCst);
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        if let Ok(mut queue) = self.shared.queue.lock() {
            queue.stop = true;
        }
        self.shared.ready.notify_one();
        if let Some(helper) = self.helper.take() {
            // A helper that panicked has nothing left to stop.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_and_stops() {
        let pipeline = Pipeline::spawn(None).expect("spawn helper");
        assert!(pipeline.time_ns() > 0);
        assert_eq!(
            pipeline.shared.done.load(Ordering::SeqCst),
            JOBS * INTERVALS
        );
    }

    #[test]
    fn compress_matches_the_fips_abc_vector() {
        // "abc", padded to one block.
        let mut block = [0u32; 16];
        block[0] = 0x6162_6380;
        block[15] = 24;
        let mut state = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        compress(&mut state, &block);
        assert_eq!(
            state,
            [
                0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223, 0xb00361a3, 0x96177a9c, 0xb410ff61,
                0xf20015ad
            ]
        );
    }
}
