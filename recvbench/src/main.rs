//! The receiver benchmark: seeded, pre-generated wire streams played
//! into the shipped DAP receiver pool, measured from the pool boundary.
//!
//! ```text
//! recvbench --workload flood|fleet|adaptive --seed N --seconds S --trace 0|1
//! ```
//!
//! A run generates its workload's stream from `--seed`, plays one
//! discarded warm-up pass, times set-ups on their own, then plays
//! measured passes until `--seconds` have passed. Every pass sets a
//! fresh receiver up, plays the whole stream and shuts the receiver
//! down. The last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1` (which interleaves traced and
//! untraced passes). Any correctness-gate failure exits nonzero without
//! printing metrics. See `README.md` in this directory.

mod alloc;
mod measure;
mod pin;
mod probe;
mod refkernel;
mod report;
mod run;
mod stream;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stream::{Stream, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Measured passes a run makes at least, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// Set-ups a run times on their own, for `setup_s`.
const SETUPS: usize = 24;

/// Why a run produced no metrics.
#[derive(Debug)]
pub enum Failure {
    /// The program's output was wrong: counters disagree, frames were
    /// lost, a percentile lacks samples, or the posture is off.
    Gate(String),
    /// The host would not let the benchmark measure.
    Io(std::io::Error),
}

impl Failure {
    fn gate(why: String) -> Self {
        Failure::Gate(why)
    }

    fn io(e: std::io::Error) -> Self {
        Failure::Io(e)
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: recvbench --workload flood|fleet|adaptive --seed N --seconds S --trace 0|1";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Everything a run measured.
pub struct Run {
    /// The stream the passes played.
    pub stream: Stream,
    /// Set-up wall times, ns.
    pub setups: Vec<u64>,
    /// Measured untraced passes.
    pub plain: Vec<run::PassOut>,
    /// Measured traced passes (`--trace 1` only).
    pub traced: Vec<run::PassOut>,
}

fn measure(args: &Args) -> Result<Run, Failure> {
    let stream = Stream::generate(args.workload, args.seed);
    let mut bufs = run::Buffers::new(&stream)?;
    // The first pass in a fresh process runs slow (cold caches, lazy
    // page faults): it only sets the counter fingerprint.
    let warm = run::pass(&stream, &mut bufs, false)?;
    report::check_pass(&stream, &warm)?;
    let setups = run::setups(&stream, &mut bufs, SETUPS)?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let enough = |plain: &Vec<_>, traced: &Vec<_>| {
        start.elapsed() >= budget
            && plain.len() >= MIN_PASSES
            && (!args.trace || traced.len() >= MIN_PASSES)
    };
    while !enough(&plain, &traced) {
        // Traced and untraced passes alternate so both see the same
        // host conditions.
        let trace_this = args.trace && plain.len() > traced.len();
        let out = run::pass(&stream, &mut bufs, trace_this)?;
        if out.fingerprint != warm.fingerprint {
            return Err(Failure::gate(format!(
                "counters differ between repetitions of one seed: {:?} vs {:?}",
                out.fingerprint, warm.fingerprint
            )));
        }
        report::check_pass(&stream, &out)?;
        if trace_this {
            traced.push(out);
        } else {
            plain.push(out);
        }
    }
    Ok(Run {
        stream,
        setups,
        plain,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("recvbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match measure(&args) {
        Ok(run) => run,
        Err(Failure::Gate(why)) => {
            eprintln!("recvbench: correctness gate failed: {why}");
            return ExitCode::from(1);
        }
        Err(Failure::Io(e)) => {
            eprintln!("recvbench: cannot measure: {e}");
            return ExitCode::from(1);
        }
    };
    match report::render(&run, args.trace) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(Failure::Gate(why)) => {
            eprintln!("recvbench: correctness gate failed: {why}");
            ExitCode::from(1)
        }
        Err(Failure::Io(e)) => {
            eprintln!("recvbench: cannot measure: {e}");
            ExitCode::from(1)
        }
    }
}
