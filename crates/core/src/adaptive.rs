//! The QoS-balanced DAP of §V: the re-provisioning order a game-driven
//! controller sends the receivers.
//!
//! The loop itself runs elsewhere: `dap-net`'s control plane estimates
//! the forged fraction `p` from reservoir evidence and re-runs
//! Algorithm 3 (`dap-game`'s `optimize` module); this module holds what
//! crosses from it to the receivers.

/// A live re-provisioning order from the control plane.
///
/// This is the unit that crosses the feedback edge: the controller (an
/// online estimator + game solve, see `dap-net`'s `control` module)
/// emits one directive whenever the recommended posture changes, and
/// every shard applies it at its next interval boundary. All fields are
/// integers so two same-seed runs produce bit-identical directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostureDirective {
    /// Monotone directive number (one per posture change in a run).
    pub epoch: u64,
    /// The reservoir count `m*` the solver chose.
    pub buffers: u32,
    /// The §V give-up verdict: buffers no longer pay; shards should fall
    /// back to the minimum reservoir and stop paying for memory.
    pub give_up: bool,
    /// The forged-fraction estimate (permille) that drove the solve.
    pub p_permille: u32,
}

impl PostureDirective {
    /// The reservoir capacity a shard should actually provision: the
    /// solver's `m*`, or the 1-buffer minimum when the game says give up
    /// (a receiver always keeps at least one reservoir slot so genuine
    /// traffic still authenticates at `1 − p` when the flood subsides).
    #[must_use]
    pub fn effective_buffers(&self) -> usize {
        if self.give_up {
            1
        } else {
            self.buffers.max(1) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn give_up_directive_falls_back_to_one_buffer() {
        let d = PostureDirective {
            epoch: 1,
            buffers: 17,
            give_up: true,
            p_permille: 990,
        };
        assert_eq!(d.effective_buffers(), 1);
        let defend = PostureDirective {
            give_up: false,
            ..d
        };
        assert_eq!(defend.effective_buffers(), 17);
    }
}
