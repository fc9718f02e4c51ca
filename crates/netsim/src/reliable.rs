//! Reliable delivery: configuration and timing policy of the engine's ARQ
//! sublayer.
//!
//! With [`Simulator::enable_arq`](crate::Simulator::enable_arq) every
//! `send`/`unicast` becomes a chain of *per-link* stop-and-wait transfers:
//! each hop is acknowledged by the receiving radio, retransmitted on a
//! deterministic timeout with exponential backoff plus seeded jitter, and
//! abandoned after a bounded number of retries. Receivers deduplicate by
//! `(src, seq)` so a data copy whose ack was lost is re-acked but delivered
//! to the protocol exactly once. Hop-by-hop (rather than end-to-end)
//! recovery is what makes long unicast routes survive per-hop loss: a route
//! of `h` hops at drop probability `p` succeeds with probability
//! `(1 - p^(r+1))^h` instead of `((1-p)^h)`-per-attempt.
//!
//! # Accounting
//!
//! Reliability overhead is first-class in the [`CostBook`](crate::CostBook):
//! the *first* attempt of each link transfer is billed under the message's
//! own kind (exactly like an unreliable run), every retransmission under
//! [`KIND_RETX`], and every acknowledgment under [`KIND_ACK`]. The metrics
//! registry counts `net.retx` (retransmissions), `net.ack.dup` (duplicate
//! data deliveries that were re-acked) and `net.timeout` (link transfers
//! abandoned after the retry budget).
//!
//! # Determinism
//!
//! Every timing decision is a pure function of the constants below and the
//! engine's seeded RNG (backoff jitter is drawn from the same stream as
//! link delays), so same-seed runs remain byte-identical — the
//! `elink-bench --check chaos` contract.

/// Cost-book kind under which ARQ retransmissions are billed.
pub const KIND_RETX: &str = "net.retx";

/// Cost-book kind under which ARQ acknowledgments are billed.
pub const KIND_ACK: &str = "net.ack";

/// Slack ticks added to the round-trip estimate `2 · max_hop_delay` before
/// backoff doubling (covers queueing at the receiver).
pub const RTT_SLACK: u64 = 4;

/// Retransmissions allowed per link transfer (total transmissions =
/// `MAX_RETRIES + 1`); on exhaustion the transfer is dropped and
/// `net.timeout` is incremented. Nine transmissions per link: at drop 0.25
/// a link transfer fails with probability 0.25^9 ≈ 4e-6 — negligible for
/// test-scale runs while keeping the worst-case envelope finite.
pub const MAX_RETRIES: u32 = 8;

/// Maximum jitter ticks added to each timeout, drawn uniformly from
/// `[0, JITTER_MAX]` out of the seeded simulation RNG.
pub const JITTER_MAX: u64 = 3;

/// Turns the ARQ sublayer on when passed to
/// [`Simulator::enable_arq`](crate::Simulator::enable_arq); build it with
/// `ArqConfig::default()`. It carries no settings: the retry/timeout policy
/// is [`RTT_SLACK`], [`MAX_RETRIES`] and [`JITTER_MAX`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArqConfig {
    _private: (),
}

/// Retransmission timeout (without jitter) of 0-based `attempt` over a link
/// whose worst one-way delay is `max_hop_delay`:
/// `(2 · max_hop_delay + RTT_SLACK) · 2^attempt`. Exponential backoff,
/// shift-capped so the arithmetic never overflows.
pub fn rto(attempt: u32, max_hop_delay: u64) -> u64 {
    let base = 2 * max_hop_delay + RTT_SLACK;
    base.saturating_mul(1u64 << attempt.min(20))
}

/// Worst-case ticks from first transmission to delivery over one link: all
/// allowed timeouts (with maximal jitter) elapse and the final transmission
/// still makes it, taking the maximal hop delay.
pub fn worst_case_link_delivery(max_hop_delay: u64) -> u64 {
    let mut total = 0u64;
    for attempt in 0..MAX_RETRIES {
        total = total.saturating_add(rto(attempt, max_hop_delay) + JITTER_MAX);
    }
    total.saturating_add(max_hop_delay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_doubles_per_attempt() {
        assert_eq!(rto(0, 3), 10);
        assert_eq!(rto(1, 3), 20);
        assert_eq!(rto(2, 3), 40);
        // Shift cap: huge attempt numbers saturate instead of overflowing.
        assert!(rto(200, 3) >= rto(20, 3));
    }

    #[test]
    fn worst_case_covers_every_backoff_round() {
        // Eight timeouts 10·(1 + 2 + … + 128) = 2550, +3 jitter each, +
        // the final 3-tick flight.
        assert_eq!(worst_case_link_delivery(3), 2550 + 8 * 3 + 3);
    }

    #[test]
    fn default_config_is_loss_resistant() {
        let p_fail = 0.25f64.powi(MAX_RETRIES as i32 + 1);
        assert!(p_fail < 1e-5, "retry budget too small for drop 0.25");
        assert!(worst_case_link_delivery(1) < 10_000);
    }
}
