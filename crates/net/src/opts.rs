//! A tiny `--key value` / `--flag` argument parser for the binaries
//! (the workspace is hermetic — no clap).
//!
//! Every lookup is recorded, so once a mode has read all its options
//! [`Opts::unread`] names the ones it never looked at — a misspelling
//! or an option of another mode — instead of letting them pass
//! silently.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::str::FromStr;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    /// Every key and flag name looked up so far, given or not.
    read: RefCell<BTreeSet<String>>,
}

impl Opts {
    /// Parses the process arguments. `known_flags` lists the `--name`
    /// switches that take no value; every other `--name` consumes the
    /// next argument as its value.
    ///
    /// # Panics
    ///
    /// Panics (with a readable message) on a positional argument or a
    /// valued option with no value — binaries surface that directly.
    #[must_use]
    pub fn parse(known_flags: &[&str]) -> Self {
        Self::from_iter(std::env::args().skip(1), known_flags)
    }

    /// [`Opts::parse`] over an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// See [`Opts::parse`].
    #[must_use]
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I, known_flags: &[&str]) -> Self {
        let mut opts = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                panic!("unexpected positional argument {arg:?} (options are --key value)");
            };
            if known_flags.contains(&name) {
                opts.flags.push(name.to_string());
            } else {
                let value = iter
                    .next()
                    .unwrap_or_else(|| panic!("option --{name} needs a value"));
                opts.pairs.push((name.to_string(), value));
            }
        }
        opts
    }

    /// The value of `--key`, if given (last occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--key` parsed as `T`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparsable.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| panic!("--{key} got unparsable value {raw:?}")),
        }
    }

    /// Whether `--name` (a known flag) was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.read.borrow_mut().insert(name.to_string());
        self.flags.iter().any(|f| f == name)
    }

    /// The options given (keys and flags, sorted, without the `--`)
    /// that no [`Opts::get`], [`Opts::get_or`] or [`Opts::flag`] call
    /// has looked up.
    #[must_use]
    pub fn unread(&self) -> Vec<String> {
        let read = self.read.borrow();
        let given: BTreeSet<&String> = self
            .pairs
            .iter()
            .map(|(k, _)| k)
            .chain(&self.flags)
            .collect();
        given
            .into_iter()
            .filter(|name| !read.contains(*name))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn pairs_flags_and_defaults() {
        let opts = Opts::from_iter(
            args(&["--seed", "7", "--loopback", "--flood", "0.9"]),
            &["loopback"],
        );
        assert_eq!(opts.get_or("seed", 0u64), 7);
        assert_eq!(opts.get_or("missing", 42u64), 42);
        assert!((opts.get_or("flood", 0.0f64) - 0.9).abs() < 1e-12);
        assert!(opts.flag("loopback"));
        assert!(!opts.flag("assert-soak"));
        assert_eq!(opts.get("missing"), None);
    }

    #[test]
    fn last_occurrence_wins() {
        let opts = Opts::from_iter(args(&["--m", "1", "--m", "2"]), &[]);
        assert_eq!(opts.get_or("m", 0u32), 2);
    }

    #[test]
    fn misspelled_option_stays_unread() {
        // A misspelling must not fall back to the default silently:
        // the mode reads `intervals`, never `intervls`.
        let opts = Opts::from_iter(args(&["--loopback", "--intervls", "5"]), &["loopback"]);
        assert!(opts.flag("loopback"));
        assert_eq!(opts.get_or("intervals", 400u64), 400);
        assert_eq!(opts.unread(), ["intervls"]);
    }

    #[test]
    fn option_the_mode_never_reads_stays_unread() {
        // A mode that never asks for --flood-end must name it rather
        // than run a stationary flood (as `--loopback` names
        // `--senders`).
        let opts = Opts::from_iter(
            args(&[
                "--fleet",
                "--flood",
                "0.1",
                "--flood-end",
                "0.9",
                "--adaptive",
            ]),
            &["fleet", "adaptive"],
        );
        assert!(opts.flag("fleet") && opts.flag("adaptive"));
        assert!((opts.get_or("flood", 0.8f64) - 0.1).abs() < 1e-12);
        assert_eq!(opts.unread(), ["flood-end"]);
        // Asking counts as reading, whether or not the option was given.
        assert_eq!(opts.get("flood-end"), Some("0.9"));
        assert!(!opts.flag("assert-soak"));
        assert!(opts.unread().is_empty());
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn dangling_option_panics() {
        let _ = Opts::from_iter(args(&["--seed"]), &[]);
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn positional_arguments_rejected() {
        let _ = Opts::from_iter(args(&["whoops"]), &[]);
    }

    #[test]
    #[should_panic(expected = "unparsable")]
    fn bad_value_panics() {
        let opts = Opts::from_iter(args(&["--seed", "pony"]), &[]);
        let _ = opts.get_or("seed", 0u64);
    }
}
