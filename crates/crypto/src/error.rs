use std::error::Error;
use std::fmt;

/// Why a disclosed key failed verification against a chain anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainVerifyError {
    /// The claimed index is at or before the anchor — the key for that
    /// interval is already public, so the disclosure proves nothing.
    NotAhead {
        /// Index of the anchor key the receiver currently trusts.
        anchor_index: u64,
        /// Index claimed by the disclosure.
        claimed_index: u64,
    },
    /// The claimed index lies more than [`crate::ChainAnchor::MAX_STEPS`]
    /// one-way steps from the anchor, ahead of it or behind it (guards
    /// against CPU exhaustion via far-off indices).
    TooFar {
        /// How many one-way applications would be required.
        steps: u64,
        /// The bound, [`crate::ChainAnchor::MAX_STEPS`].
        max_steps: u64,
    },
    /// The disclosed key is not the chain key of the claimed interval:
    /// iterating the one-way function from it did not reach the anchor
    /// key, or, at or behind the anchor, it differs from the key derived
    /// there. Interval 0 has no chain key: `K_0` is the public commitment.
    Mismatch,
}

impl fmt::Display for ChainVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainVerifyError::NotAhead {
                anchor_index,
                claimed_index,
            } => write!(
                f,
                "claimed index {claimed_index} is not ahead of anchor index {anchor_index}"
            ),
            ChainVerifyError::TooFar { steps, max_steps } => write!(
                f,
                "verification would need {steps} one-way steps, more than the bound {max_steps}"
            ),
            ChainVerifyError::Mismatch => f.write_str("disclosed key is not on the chain"),
        }
    }
}

impl Error for ChainVerifyError {}

/// A sender asked for an interval past the end of its one-way key chain.
///
/// Running off the chain is an operational condition — the chain simply
/// has a finite horizon — not a bug, so sender APIs return this instead
/// of panicking. The caller can stop broadcasting, roll a new chain, or
/// re-bootstrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainExhausted {
    /// The interval that was requested.
    pub index: u64,
    /// The last interval the chain can serve.
    pub horizon: u64,
}

impl fmt::Display for ChainExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interval {} beyond chain horizon {}",
            self.index, self.horizon
        )
    }
}

impl Error for ChainExhausted {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ChainVerifyError::NotAhead {
            anchor_index: 5,
            claimed_index: 3,
        };
        assert!(e.to_string().contains("not ahead"));
        assert!(ChainVerifyError::Mismatch
            .to_string()
            .contains("not on the chain"));
        let e = ChainVerifyError::TooFar {
            steps: 10,
            max_steps: 5,
        };
        assert!(e.to_string().contains("bound 5"));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ChainVerifyError>();
        assert_error::<ChainExhausted>();
    }

    #[test]
    fn chain_exhausted_display() {
        let e = ChainExhausted {
            index: 65,
            horizon: 64,
        };
        assert_eq!(e.to_string(), "interval 65 beyond chain horizon 64");
    }
}
