//! `daptrace` — forensic audit over a `--trace-out` JSONL trace.
//!
//! ```text
//! daptrace audit    <trace.jsonl> [--pin-first N] [--pin IDS]
//! daptrace report   <trace.jsonl>
//! daptrace timeline <trace.jsonl> [--sender ID] [--limit N]
//! ```
//!
//! * `audit` re-checks the pipeline's causal invariants against the
//!   recorded narration: each source's records run seq 0, 1, 2, …
//!   with none deleted, duplicated or reordered, shed frames never
//!   reach the verifier, spans agree with their verdicts, posture /
//!   estimator epochs are monotone, reservoir decisions respect the
//!   paper's `k <= m` keep rule, and operator-pinned senders (the same
//!   `--pin` / `--pin-first` roster the run was started with) are never
//!   evicted. A capture whose full rings shed records declares the
//!   count in its header; each source is then checked from its first
//!   retained record, and the verdict names the count. A line that is
//!   not the canonical rendering of a record is itself evidence of
//!   corruption and is reported as a violation. Exit code: 0 clean,
//!   1 violations, 2 usage / I/O errors.
//! * `report` prints the byte-stable forensic summary: event census,
//!   flight-recorder stage-latency breakdown (p50/p95/p99 per pipeline
//!   stage) and the attack-onset estimate read off the forged-share
//!   trajectory. Two same-seed traces render byte-identical reports —
//!   the ci.sh `daptrace` gate `cmp`s them.
//! * `timeline` renders the frame lifecycle one line per record, each
//!   event's fields as `name=value` under their JSONL names, optionally
//!   filtered to the records naming `--sender ID`.
//!
//! The tool never loads the runtime: it is a pure function of the
//! trace file, so it can audit an incident capture long after the run
//! (and the machine) that produced it is gone.

use std::collections::BTreeSet;
use std::process::ExitCode;

use dap_net::forensics;
use dap_obs::{parse_trace, ParsedTrace};

fn usage() -> ExitCode {
    eprintln!(
        "usage: daptrace <audit|report|timeline> <trace.jsonl> \
         [--pin-first N] [--pin IDS] [--sender ID] [--limit N]"
    );
    ExitCode::from(2)
}

/// The hand-rolled CLI surface: one subcommand, one path, flag pairs.
struct Cli {
    command: String,
    path: String,
    pins: BTreeSet<u64>,
    sender: Option<u64>,
    limit: usize,
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut positional = Vec::new();
    let mut pins = BTreeSet::new();
    let mut sender = None;
    let mut limit = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pin-first" => {
                let n: u64 = it.next()?.parse().ok()?;
                pins.extend(1..=n);
            }
            "--pin" => {
                for id in it.next()?.split(',') {
                    pins.insert(id.trim().parse().ok()?);
                }
            }
            "--sender" => sender = Some(it.next()?.parse().ok()?),
            "--limit" => limit = it.next()?.parse().ok()?,
            flag if flag.starts_with("--") => return None,
            _ => positional.push(arg.clone()),
        }
    }
    let [command, path] = positional.as_slice() else {
        return None;
    };
    Some(Cli {
        command: command.clone(),
        path: path.clone(),
        pins,
        sender,
        limit,
    })
}

/// Loads and strictly parses the trace. A parse failure is reported in
/// the same shape as an audit violation — a line that is not its
/// record's canonical rendering is corruption evidence, not a
/// formatting nit.
fn load(path: &str) -> Result<ParsedTrace, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("daptrace: cannot read {path}: {err}");
            return Err(ExitCode::from(2));
        }
    };
    match parse_trace(&text) {
        Ok(trace) => Ok(trace),
        Err(err) => {
            println!("violation line {}: [parse] {}", err.line, err.reason);
            println!("audit: FAIL (1 violation)");
            Err(ExitCode::from(1))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cli) = parse_cli(&args) else {
        return usage();
    };
    let trace = match load(&cli.path) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    match cli.command.as_str() {
        "audit" => {
            let violations = forensics::audit(&trace, &cli.pins);
            for violation in &violations {
                println!("{}", violation.render());
            }
            if violations.is_empty() {
                let shed = match trace.header.map_or(0, |header| header.shed) {
                    0 => String::new(),
                    shed => format!(", {shed} shed by full rings"),
                };
                println!(
                    "audit: OK ({} records{shed}, {} pinned senders, 0 violations)",
                    trace.records.len(),
                    cli.pins.len()
                );
                ExitCode::SUCCESS
            } else {
                println!("audit: FAIL ({} violations)", violations.len());
                ExitCode::from(1)
            }
        }
        "report" => {
            print!("{}", forensics::render_report(&trace));
            ExitCode::SUCCESS
        }
        "timeline" => {
            print!(
                "{}",
                forensics::render_timeline(&trace, cli.sender, cli.limit)
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
