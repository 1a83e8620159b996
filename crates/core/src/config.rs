//! Protocol configuration.

/// Which trap garbage-collection algorithm runs (Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrapCleanup {
    /// *Token-rotation clean up*: the token carries a bounded window of
    /// recently satisfied requests; nodes drop matching traps as it passes.
    #[default]
    Rotation,
    /// *Inverse token clean up*: a granted token travels back along the
    /// trail of the search messages, removing traps en route to the
    /// requester (costs up to `log N` token hops per grant).
    Inverse,
}

/// Tunables shared by all executable protocols.
///
/// The defaults reproduce the regime of the paper's simulation study
/// (Section 4.3): immediate idle passes, zero service time, rotation
/// cleanup, no failure handling.
///
/// ```rust
/// use atp_core::{ProtocolConfig, TrapCleanup};
/// let cfg = ProtocolConfig::default()
///     .with_service_ticks(2)
///     .with_trap_cleanup(TrapCleanup::Inverse)
///     .with_single_outstanding(true);
/// assert_eq!(cfg.service_ticks, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Ticks a node holds the token while servicing one request (critical
    /// section length). `0` = the pure broadcast model: appending the datum
    /// is a zero-time local rule.
    pub service_ticks: u64,
    /// Base extra hold before an *idle* node forwards the token. `0`
    /// matches the paper's figures (the token hops once per message delay).
    pub idle_pass_ticks: u64,
    /// Enables the adaptive token-speed optimization: after each full idle
    /// round the idle hold doubles, up to [`ProtocolConfig::max_idle_pass_ticks`];
    /// any demand resets it ("very slow when only a few nodes require the
    /// token and much faster when there is high demand").
    pub adaptive_speed: bool,
    /// Upper bound for the adaptive idle hold.
    pub max_idle_pass_ticks: u64,
    /// Trap garbage-collection algorithm (BinarySearch only).
    pub trap_cleanup: TrapCleanup,
    /// Keep at most one "gimme" outstanding per node; further local requests
    /// wait ("this reduces the number of gimme messages to be no more than
    /// the number of token passing messages").
    pub single_outstanding: bool,
    /// When granted the token out-of-band for one request, also service any
    /// other requests queued locally before returning it. Off by default —
    /// the paper's rule 8 returns the token immediately.
    pub serve_all_on_grant: bool,
    /// Enables Section 5 failure handling: ready nodes time out, run an
    /// inquiry, and the lost token is regenerated with a higher generation.
    pub regeneration: bool,
    /// Acknowledge and retransmit token-bearing sends (timeout 4 ticks,
    /// doubling to a 64-tick cap, 6 retries). Off by default (the paper's
    /// model delivers token messages reliably); turn on when the world runs
    /// [`LinkFaults`](atp_net::LinkFaults) that lose or duplicate token
    /// frames ([`loss`](atp_net::LinkFaults::loss),
    /// [`duplication`](atp_net::LinkFaults::duplication)).
    pub token_acks: bool,
    /// Ticks a ready node waits for a grant before suspecting token loss.
    /// Should exceed one worst-case rotation (≈ `N` message delays) plus
    /// service backlog; experiments use `4 * N`.
    pub regen_timeout_ticks: u64,
    /// The node that mints the initial token in `on_init` (the shard's
    /// *home* in the sharded plane; consistent-hash placement picks it).
    /// Values outside the topology wrap modulo `N`, so the default `0`
    /// reproduces the historical single-token behaviour exactly.
    pub initial_holder: u32,
    /// Nodes retain their full applied history and emit
    /// [`TokenEvent::Delivered`](crate::TokenEvent::Delivered) events (needed
    /// by prefix-property assertions, and by state transfer to a node that
    /// fell behind). Disable for figure-scale runs to keep memory flat and
    /// the event stream lean. The threaded runtime never reads it: its nodes
    /// keep counters only, and `Released` reports each entry once.
    pub record_log: bool,
    /// **Test-only seeded fault** used to calibrate the DST explorer: makes
    /// `OrderState` use an off-by-one duplicate-skip bound that corrupts the
    /// history digest on window redelivery. Never enable outside tests.
    #[doc(hidden)]
    pub test_bad_prefix_skip: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            service_ticks: 0,
            idle_pass_ticks: 0,
            adaptive_speed: false,
            max_idle_pass_ticks: 16,
            trap_cleanup: TrapCleanup::Rotation,
            single_outstanding: false,
            serve_all_on_grant: false,
            regeneration: false,
            token_acks: false,
            regen_timeout_ticks: 0,
            initial_holder: 0,
            record_log: true,
            test_bad_prefix_skip: false,
        }
    }
}

impl ProtocolConfig {
    /// Sets the critical-section length in ticks.
    pub fn with_service_ticks(mut self, ticks: u64) -> Self {
        self.service_ticks = ticks;
        self
    }

    /// Sets the base idle pass hold.
    pub fn with_idle_pass_ticks(mut self, ticks: u64) -> Self {
        self.idle_pass_ticks = ticks;
        self
    }

    /// Enables/disables adaptive token speed.
    pub fn with_adaptive_speed(mut self, on: bool) -> Self {
        self.adaptive_speed = on;
        self
    }

    /// Sets the adaptive-speed ceiling.
    pub fn with_max_idle_pass_ticks(mut self, ticks: u64) -> Self {
        self.max_idle_pass_ticks = ticks;
        self
    }

    /// Chooses the trap garbage-collection algorithm.
    pub fn with_trap_cleanup(mut self, cleanup: TrapCleanup) -> Self {
        self.trap_cleanup = cleanup;
        self
    }

    /// Enables/disables single-outstanding-request throttling.
    pub fn with_single_outstanding(mut self, on: bool) -> Self {
        self.single_outstanding = on;
        self
    }

    /// Enables/disables servicing the whole local queue on an out-of-band
    /// grant.
    pub fn with_serve_all_on_grant(mut self, on: bool) -> Self {
        self.serve_all_on_grant = on;
        self
    }

    /// Enables failure handling with the given suspicion timeout.
    pub fn with_regeneration(mut self, timeout_ticks: u64) -> Self {
        self.regeneration = true;
        self.regen_timeout_ticks = timeout_ticks;
        self
    }

    /// Enables/disables ack + retransmit for token-bearing sends.
    pub fn with_token_acks(mut self, on: bool) -> Self {
        self.token_acks = on;
        self
    }

    /// Sets which node mints the initial token (wraps modulo `N`).
    pub fn with_initial_holder(mut self, node: u32) -> Self {
        self.initial_holder = node;
        self
    }

    /// The effective initial token holder for a topology of `n` nodes.
    pub fn effective_initial_holder(&self, n: usize) -> u32 {
        if n == 0 {
            0
        } else {
            self.initial_holder % n as u32
        }
    }

    /// **Test-only**: plants the off-by-one prefix-skip fault (see
    /// [`ProtocolConfig::test_bad_prefix_skip`]).
    #[doc(hidden)]
    pub fn with_bad_prefix_skip(mut self, on: bool) -> Self {
        self.test_bad_prefix_skip = on;
        self
    }

    /// Enables/disables full history recording at each node.
    pub fn with_record_log(mut self, on: bool) -> Self {
        self.record_log = on;
        self
    }

    /// The hold applied before an idle token pass, given how many
    /// consecutive demand-free rounds the token has seen.
    ///
    /// Without [`ProtocolConfig::adaptive_speed`] this is the constant
    /// [`ProtocolConfig::idle_pass_ticks`]; with it, the hold doubles per
    /// idle round up to [`ProtocolConfig::max_idle_pass_ticks`].
    pub fn idle_delay(&self, idle_rounds: u32) -> u64 {
        if !self.adaptive_speed || idle_rounds == 0 {
            self.idle_pass_ticks
        } else {
            (self.idle_pass_ticks + (1u64 << idle_rounds.min(20))).min(self.max_idle_pass_ticks)
        }
    }

    /// The effective regeneration timeout for a ring of `n` nodes.
    pub fn effective_regen_timeout(&self, n: usize) -> u64 {
        if self.regen_timeout_ticks == 0 {
            4 * n as u64 + 16
        } else {
            self.regen_timeout_ticks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_regime() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.service_ticks, 0);
        assert_eq!(cfg.idle_pass_ticks, 0);
        assert_eq!(cfg.trap_cleanup, TrapCleanup::Rotation);
        assert!(!cfg.regeneration);
        assert!(cfg.record_log);
    }

    #[test]
    fn builder_chains() {
        let cfg = ProtocolConfig::default()
            .with_service_ticks(3)
            .with_idle_pass_ticks(1)
            .with_adaptive_speed(true)
            .with_max_idle_pass_ticks(64)
            .with_trap_cleanup(TrapCleanup::Inverse)
            .with_single_outstanding(true)
            .with_serve_all_on_grant(true)
            .with_regeneration(100)
            .with_token_acks(true)
            .with_record_log(false);
        assert_eq!(cfg.service_ticks, 3);
        assert_eq!(cfg.idle_pass_ticks, 1);
        assert!(cfg.adaptive_speed);
        assert_eq!(cfg.max_idle_pass_ticks, 64);
        assert_eq!(cfg.trap_cleanup, TrapCleanup::Inverse);
        assert!(cfg.single_outstanding);
        assert!(cfg.serve_all_on_grant);
        assert!(cfg.regeneration);
        assert_eq!(cfg.regen_timeout_ticks, 100);
        assert!(cfg.token_acks);
        assert!(!cfg.record_log);
    }

    #[test]
    fn effective_values_scale_with_n() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.effective_regen_timeout(10), 56);
        assert_eq!(cfg.with_regeneration(99).effective_regen_timeout(100), 99);
    }
}
