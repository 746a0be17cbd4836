//! Performance trajectory for the hot paths this workspace optimises:
//! ns/iter for the crypto primitives (midstate-cached vs. the pre-cache
//! one-shot reference, re-implemented here) and cells/sec for the sweep
//! engine (work-stealing vs. single-threaded reference).
//!
//! Usage: `cargo run --release -p dap-bench --bin perf [out_dir]`
//!
//! Writes `BENCH_crypto.json` and `BENCH_sweep.json` into `out_dir`
//! (default: current directory) and prints the same numbers to stdout.
//! `DAP_BENCH_MS` bounds each crypto measurement (default 100 ms), so
//! `DAP_BENCH_MS=5` gives a CI-friendly smoke run.

use std::time::Instant;

use dap_bench::json::{array, JsonObject};
use dap_bench::sweep::{run_sweep_sequential, run_sweep_with_stats, to_csv, SweepConfig};
use dap_bench::timer::measure;
use dap_crypto::lanes::{self, LaneWidth};
use dap_crypto::mac::{micro_mac_prepared, prepare_receiver_key, Mac80};
use dap_crypto::oneway::one_way_iter;
use dap_crypto::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE};
use dap_crypto::{Domain, Key};

/// HMAC-SHA-256 the way the workspace computed it before midstate
/// caching landed: the key schedule re-runs on every call and both
/// passes go through the incremental staging buffer. Kept here as the
/// measured baseline so the reported speedups always compare against
/// the same reference, not against whatever the library currently does.
fn hmac_unprepared(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut block_key = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let digest = sha256::digest(key);
        block_key[..DIGEST_LEN].copy_from_slice(&digest);
    } else {
        block_key[..key.len()].copy_from_slice(key);
    }
    let mut pad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        pad[i] = block_key[i] ^ 0x36;
    }
    let mut inner = Sha256::new();
    inner.update(&pad);
    inner.update(message);
    let inner_digest = inner.finalize();
    for i in 0..BLOCK_LEN {
        pad[i] = block_key[i] ^ 0x5c;
    }
    let mut outer = Sha256::new();
    outer.update(&pad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// `one_way_iter` built on the unprepared reference.
fn one_way_iter_unprepared(domain: Domain, key: &Key, steps: usize) -> Key {
    let mut k = *key;
    for _ in 0..steps {
        let tag = hmac_unprepared(domain.label(), k.as_bytes());
        k = Key::from_slice(&tag[..Key::LEN]).expect("digest longer than key");
    }
    k
}

struct CryptoRecord {
    name: &'static str,
    ns: u64,
    baseline_ns: u64,
}

impl CryptoRecord {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.ns as f64
    }
}

fn bench_crypto() -> Vec<CryptoRecord> {
    let key = Key::derive(b"perf/chain", b"head");
    let recv = Key::derive(b"perf/receiver", b"local");
    let mac = Mac80::from_slice(&[0xabu8; Mac80::LEN]).expect("fixed length");

    let mut records = Vec::new();

    // Sanity: the two paths must agree before their timings mean anything.
    assert_eq!(
        one_way_iter(Domain::F, &key, 64),
        one_way_iter_unprepared(Domain::F, &key, 64),
    );
    records.push(CryptoRecord {
        name: "one_way_iter_4096",
        ns: measure(|| one_way_iter(Domain::F, &key, 4096)),
        baseline_ns: measure(|| one_way_iter_unprepared(Domain::F, &key, 4096)),
    });

    let prepared = prepare_receiver_key(&recv);
    assert_eq!(
        micro_mac_prepared(&prepared, &mac).as_bytes(),
        &hmac_unprepared(recv.as_bytes(), mac.as_bytes())[..3],
    );
    records.push(CryptoRecord {
        name: "micro_mac_rekey",
        ns: measure(|| micro_mac_prepared(&prepared, &mac)),
        baseline_ns: measure(|| {
            let tag = hmac_unprepared(recv.as_bytes(), mac.as_bytes());
            (tag[0], tag[1], tag[2])
        }),
    });

    // Compression kernels: ns per *block* for each kernel this host
    // supports, against the portable compressor on the same blocks
    // (`compress_many_with(Scalar, ..)` runs exactly the portable loop
    // the lane kernels fall back to). Hosts without sse2/avx2/SHA-NI
    // simply omit the record they can't run.
    const BLOCKS: usize = 8;
    let blocks = vec![[0x5au8; BLOCK_LEN]; BLOCKS];
    for &width in lanes::supported() {
        let name = match width {
            LaneWidth::Scalar => continue,
            LaneWidth::W4 => "compress_x4",
            LaneWidth::W8 => "compress_x8",
            LaneWidth::ShaNi => "compress_ni",
        };

        // Sanity: the kernel must agree with the portable one.
        let mut fast = vec![INITIAL_STATE; BLOCKS];
        let mut portable = vec![INITIAL_STATE; BLOCKS];
        lanes::compress_many_with(width, &mut fast, &blocks);
        lanes::compress_many_with(LaneWidth::Scalar, &mut portable, &blocks);
        assert_eq!(fast, portable, "{name} must match the portable compression");

        records.push(CryptoRecord {
            name,
            ns: measure(|| lanes::compress_many_with(width, &mut fast, &blocks))
                .div_ceil(BLOCKS as u64),
            baseline_ns: measure(|| {
                lanes::compress_many_with(LaneWidth::Scalar, &mut portable, &blocks)
            })
            .div_ceil(BLOCKS as u64),
        });
    }

    records
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| ".".into());

    let crypto = bench_crypto();
    for r in &crypto {
        println!(
            "{:<24} {:>10} ns/iter   baseline {:>10} ns   speedup {:.2}x",
            r.name,
            r.ns,
            r.baseline_ns,
            r.speedup()
        );
    }
    let crypto_json = array(&crypto, |r| {
        JsonObject::new()
            .str("name", r.name)
            .u64("ns_per_iter", r.ns)
            .u64("baseline_ns", r.baseline_ns)
            .f64("speedup", r.speedup())
    });
    let crypto_path = format!("{out_dir}/BENCH_crypto.json");
    std::fs::write(&crypto_path, format!("{crypto_json}\n")).expect("write BENCH_crypto.json");

    // The acceptance grid: 12 attack levels × 8 buffer counts × 4 loss
    // rates. Campaigns are short — this measures scheduling, not the
    // simulator.
    let config = SweepConfig {
        attack_levels: (0..12).map(|i| 0.05 + 0.07 * f64::from(i)).collect(),
        buffer_counts: (0..8).map(|i| 1usize << i).collect(),
        loss_rates: vec![0.0, 0.1, 0.2, 0.3],
        intervals: 40,
        announce_copies: 1,
        seed: 2016,
        fault: None,
    };
    let t0 = Instant::now();
    let (rows, stats) = run_sweep_with_stats(&config);
    let parallel = t0.elapsed();
    let t1 = Instant::now();
    let reference = run_sweep_sequential(&config);
    let sequential = t1.elapsed();
    let identical = to_csv(&rows) == to_csv(&reference);
    assert!(
        identical,
        "parallel sweep diverged from sequential reference"
    );

    let cells_per_sec = stats.cells as f64 / parallel.as_secs_f64();
    let sweep_speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    let wall = &stats.cell_wall;
    let (wall_p50, wall_p95, wall_p99) = (
        wall.quantile(0.5).unwrap_or(0),
        wall.quantile(0.95).unwrap_or(0),
        wall.quantile(0.99).unwrap_or(0),
    );
    println!(
        "sweep 12x8x4             {:>10} cells   {:>7} workers engaged   {:.0} cells/s   {:.2}x vs sequential",
        stats.cells, stats.workers_engaged, cells_per_sec, sweep_speedup
    );
    println!(
        "sweep cell wall time     p50={wall_p50}ns p95={wall_p95}ns p99={wall_p99}ns   ({} cells sampled)",
        wall.count()
    );

    let sweep_records = [(rows.len(), stats)];
    let sweep_json = array(&sweep_records, |(n, s)| {
        JsonObject::new()
            .str("name", "sweep_12x8x4")
            .u64("cells", *n as u64)
            .u64("workers_spawned", s.workers_spawned as u64)
            .u64("workers_engaged", s.workers_engaged as u64)
            .u64("parallel_us", parallel.as_micros() as u64)
            .u64("sequential_us", sequential.as_micros() as u64)
            .f64("cells_per_sec", cells_per_sec)
            .f64("speedup", sweep_speedup)
            .u64("cell_wall_p50_ns", wall_p50)
            .u64("cell_wall_p95_ns", wall_p95)
            .u64("cell_wall_p99_ns", wall_p99)
            .bool("bit_identical", identical)
    });
    let sweep_path = format!("{out_dir}/BENCH_sweep.json");
    std::fs::write(&sweep_path, format!("{sweep_json}\n")).expect("write BENCH_sweep.json");

    println!("wrote {crypto_path} and {sweep_path}");
}
