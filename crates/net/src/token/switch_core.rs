//! The token-passing logic of one network switch (§2.2, Figure 1).

use tss_sim::Gt;

/// A transaction copy buffered inside a switch, waiting for an output link.
#[derive(Debug, Clone)]
struct BufEntry<T> {
    /// Current slack (rule 2 decrements this while buffered).
    slack: u64,
    /// `ΔD` of the branch this copy will take, applied when it is sent.
    delta_d: u64,
    /// FIFO arrival order, used to break slack ties deterministically.
    arrived: u64,
    txn: T,
}

/// The token-passing core of a switch: per-input token counters, a
/// per-output transaction buffer, and the propagation handshake.
///
/// "The switch is standard except for the token passing logic, which
/// operates in parallel with normal message routing" (§2.2) — this type *is*
/// that token-passing logic, factored out so it can be driven standalone
/// (the Figure 1 example) or embedded in the event-driven
/// [`DetailedNet`](super::DetailedNet).
///
/// A switch may propagate a token whenever it has received a token from
/// each input and all buffered transactions have non-zero slack; when it
/// propagates it sends a token on each output, decrements the slack of all
/// buffered transactions, and decrements every input token counter.
///
/// The propagation preconditions are tracked incrementally (`armed_ports`
/// counts inputs holding a token, `zero_slack` counts buffered copies a
/// token may not pass), so the per-token hot path — this fires once per
/// link per wave in the detailed network — is O(1) instead of a scan over
/// every port and buffer.
///
/// # Example (Figure 1)
///
/// ```
/// use tss_net::SwitchCore;
///
/// // A 2x2 switch; input 0 holds one pending token, input 1 none.
/// let mut sw: SwitchCore<&str> = SwitchCore::new(2, 2);
/// sw.token_arrives(0);
///
/// // (a)-(b): a message with slack 1 enters on input 0, moving past the
/// // pending token: slack becomes 2 (ΔGT = +1). Contention forces it to
/// // buffer for both outputs (ΔD 1 on the short branch, 0 on the long).
/// let slack = sw.txn_enters(0, 1);
/// assert_eq!(slack, 2);
/// sw.buffer(0, slack, 1, "msg");
/// sw.buffer(1, slack, 0, "msg");
///
/// // (c): tokens arrive on both inputs.
/// sw.token_arrives(0);
/// sw.token_arrives(1);
///
/// // (d): the switch propagates; the token moves past the buffered
/// // message, whose slack drops to 1 (ΔGT = -1).
/// assert!(sw.propagate());
/// assert_eq!(sw.buffered_slacks(1), vec![1]);
///
/// // (e): contention clears; the message leaves with ΔD applied per branch.
/// assert_eq!(sw.pop_sendable(0), Some((2, "msg"))); // short branch: 1 + ΔD 1
/// assert_eq!(sw.pop_sendable(1), Some((1, "msg"))); // long branch: 1 + ΔD 0
/// ```
#[derive(Debug, Clone)]
pub struct SwitchCore<T> {
    token_count: Vec<u64>,
    out_bufs: Vec<Vec<BufEntry<T>>>,
    gt: Gt,
    arrivals: u64,
    buffered: usize,
    buffer_high_water: usize,
    /// Input ports currently holding at least one token.
    armed_ports: usize,
    /// Buffered copies whose slack is zero (they block propagation).
    zero_slack: usize,
}

impl<T> SwitchCore<T> {
    /// Creates a switch with the given port counts and **no** initial
    /// tokens; callers model the paper's "one (or more) tokens on each
    /// input port" initial condition with [`SwitchCore::token_arrives`].
    ///
    /// # Panics
    ///
    /// Panics if either port count is zero.
    pub fn new(in_ports: usize, out_ports: usize) -> Self {
        Self::starting_at(in_ports, out_ports, Gt::ZERO)
    }

    /// Like [`SwitchCore::new`], but with the guarantee time seeded at
    /// `origin` instead of zero — used to start whole simulations near the
    /// era rollover and prove the wraparound-safe ordering is exercised.
    ///
    /// # Panics
    ///
    /// Panics if either port count is zero.
    pub fn starting_at(in_ports: usize, out_ports: usize, origin: Gt) -> Self {
        assert!(in_ports > 0, "a switch needs at least one input");
        assert!(out_ports > 0, "a switch needs at least one output");
        SwitchCore {
            token_count: vec![0; in_ports],
            out_bufs: (0..out_ports).map(|_| Vec::new()).collect(),
            gt: origin,
            arrivals: 0,
            buffered: 0,
            buffer_high_water: 0,
            armed_ports: 0,
            zero_slack: 0,
        }
    }

    /// A token arrives on `in_port`.
    #[inline]
    pub fn token_arrives(&mut self, in_port: usize) {
        if self.token_count[in_port] == 0 {
            self.armed_ports += 1;
        }
        self.token_count[in_port] += 1;
    }

    /// A transaction with `slack` enters on `in_port`; returns the adjusted
    /// slack (rule 1: `ΔGT` = pending tokens it moves past).
    #[inline]
    pub fn txn_enters(&mut self, in_port: usize, slack: u64) -> u64 {
        slack + self.token_count[in_port]
    }

    /// Buffers a transaction copy for `out_port` (link busy); `delta_d` is
    /// applied when the copy is eventually sent.
    pub fn buffer(&mut self, out_port: usize, slack: u64, delta_d: u64, txn: T) {
        if slack == 0 {
            self.zero_slack += 1;
        }
        self.out_bufs[out_port].push(BufEntry {
            slack,
            delta_d,
            arrived: self.arrivals,
            txn,
        });
        self.arrivals += 1;
        self.buffered += 1;
        self.buffer_high_water = self.buffer_high_water.max(self.buffered);
    }

    /// Whether the propagation conditions hold: every input has a pending
    /// token and no buffered transaction has zero slack.
    #[inline]
    pub fn can_propagate(&self) -> bool {
        self.armed_ports == self.token_count.len() && self.zero_slack == 0
    }

    /// Propagates one token if possible (rule 2), returning whether it
    /// fired. On success the caller must send a token on **every** output
    /// link.
    pub fn propagate(&mut self) -> bool {
        if !self.can_propagate() {
            return false;
        }
        for c in &mut self.token_count {
            *c -= 1;
            if *c == 0 {
                self.armed_ports -= 1;
            }
        }
        if self.buffered > 0 {
            for e in self.out_bufs.iter_mut().flatten() {
                debug_assert!(e.slack > 0, "token would pass a zero-slack transaction");
                e.slack -= 1;
                if e.slack == 0 {
                    self.zero_slack += 1;
                }
            }
        }
        self.gt = self.gt.next();
        true
    }

    /// Removes the highest-priority buffered copy for `out_port` — the
    /// paper's arbitration "gives precedence to zero-slack transactions",
    /// generalised to lowest-slack-first (FIFO among equals). Returns the
    /// slack *with* the branch `ΔD` applied (rule 3), and the transaction.
    pub fn pop_sendable(&mut self, out_port: usize) -> Option<(u64, T)> {
        let buf = &mut self.out_bufs[out_port];
        let best = buf
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.slack, e.arrived))?
            .0;
        let e = buf.swap_remove(best);
        self.buffered -= 1;
        if e.slack == 0 {
            self.zero_slack -= 1;
        }
        Some((e.slack + e.delta_d, e.txn))
    }

    /// Number of transaction copies currently buffered for `out_port`.
    pub fn queued(&self, out_port: usize) -> usize {
        self.out_bufs[out_port].len()
    }

    /// Total buffered transaction copies across all outputs.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Largest buffer occupancy ever observed (the §2.2 buffering
    /// discussion: endpoints need worst-case buffering; switches should
    /// need little).
    pub fn buffer_high_water(&self) -> usize {
        self.buffer_high_water
    }

    /// The switch's guarantee time: its starting origin plus the tokens it
    /// has propagated, as a packed wraparound-safe [`Gt`].
    #[inline]
    pub fn gt(&self) -> Gt {
        self.gt
    }

    /// Pending (unconsumed) tokens on `in_port`.
    pub fn tokens_pending(&self, in_port: usize) -> u64 {
        self.token_count[in_port]
    }

    /// Current slacks of the copies buffered for `out_port` (diagnostics /
    /// Figure 1 walkthrough).
    pub fn buffered_slacks(&self, out_port: usize) -> Vec<u64> {
        self.out_bufs[out_port].iter().map(|e| e.slack).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The complete Figure 1 walkthrough, states (a) through (e), with the
    /// exact slack and token-counter values of the paper.
    #[test]
    fn figure1_token_passing_example() {
        let mut sw: SwitchCore<&str> = SwitchCore::new(2, 2);

        // (a) One pending token on input 0; empty buffer; a message with
        // slack 1 is arriving on input 0.
        sw.token_arrives(0);
        assert_eq!(sw.tokens_pending(0), 1);
        assert_eq!(sw.buffered(), 0);

        // (b) The message moves past the token counter and buffers with
        // slack incremented to 2 (ΔGT = 1).
        let slack = sw.txn_enters(0, 1);
        assert_eq!(slack, 2);
        sw.buffer(0, slack, 1, "msg"); // short branch: ΔD = 1
        sw.buffer(1, slack, 0, "msg"); // long branch: ΔD = 0

        // (c) Tokens arrive on both inputs; counters increment.
        sw.token_arrives(0);
        sw.token_arrives(1);
        assert_eq!(sw.tokens_pending(0), 2);
        assert_eq!(sw.tokens_pending(1), 1);

        // (d) The switch issues a token on each output; the token moves
        // past the buffered message, decreasing its slack to 1 (ΔGT = -1).
        assert!(sw.propagate());
        assert_eq!(sw.tokens_pending(0), 1);
        assert_eq!(sw.tokens_pending(1), 0);
        assert_eq!(sw.buffered_slacks(0), vec![1]);
        assert_eq!(sw.buffered_slacks(1), vec![1]);
        assert_eq!(sw.gt(), Gt::from_ticks(1));

        // (e) Contention removed: the message is issued on both outputs
        // with slack adjusted by each branch's ΔD (ΔD = 1 on the shorter
        // top branch).
        assert_eq!(sw.pop_sendable(0), Some((2, "msg")));
        assert_eq!(sw.pop_sendable(1), Some((1, "msg")));
        assert_eq!(sw.buffered(), 0);
    }

    #[test]
    fn zero_slack_transactions_block_tokens() {
        let mut sw: SwitchCore<()> = SwitchCore::new(1, 1);
        sw.token_arrives(0);
        sw.buffer(0, 0, 0, ());
        // The invariant S_new >= 0 "prohibits tokens from moving past
        // zero-slack transactions".
        assert!(!sw.can_propagate());
        assert!(!sw.propagate());
        // Draining the zero-slack transaction unblocks propagation.
        assert_eq!(sw.pop_sendable(0), Some((0, ())));
        assert!(sw.propagate());
    }

    #[test]
    fn propagation_needs_a_token_on_every_input() {
        let mut sw: SwitchCore<()> = SwitchCore::new(3, 2);
        sw.token_arrives(0);
        sw.token_arrives(1);
        assert!(!sw.propagate());
        sw.token_arrives(2);
        assert!(sw.propagate());
        assert_eq!(sw.gt(), Gt::from_ticks(1));
        // All counters consumed.
        assert!((0..3).all(|p| sw.tokens_pending(p) == 0));
    }

    #[test]
    fn arbitration_prefers_zero_slack() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(1, 1);
        sw.buffer(0, 3, 0, 1);
        sw.buffer(0, 0, 0, 2);
        sw.buffer(0, 1, 0, 3);
        assert_eq!(sw.pop_sendable(0), Some((0, 2)));
        assert_eq!(sw.pop_sendable(0), Some((1, 3)));
        assert_eq!(sw.pop_sendable(0), Some((3, 1)));
        assert_eq!(sw.pop_sendable(0), None);
    }

    #[test]
    fn fifo_among_equal_slack() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(1, 1);
        sw.buffer(0, 2, 0, 10);
        sw.buffer(0, 2, 0, 11);
        assert_eq!(sw.pop_sendable(0), Some((2, 10)));
        assert_eq!(sw.pop_sendable(0), Some((2, 11)));
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let mut sw: SwitchCore<()> = SwitchCore::new(1, 2);
        sw.buffer(0, 1, 0, ());
        sw.buffer(1, 1, 0, ());
        sw.pop_sendable(0);
        sw.buffer(1, 1, 0, ());
        assert_eq!(sw.buffer_high_water(), 2);
        assert_eq!(sw.buffered(), 2);
        assert_eq!(sw.queued(1), 2);
    }

    /// The incremental propagation counters must stay consistent with the
    /// naive scans across every slack transition (buffer → token passes →
    /// zero → drained).
    #[test]
    fn incremental_counters_track_slack_transitions() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(1, 1);
        sw.buffer(0, 1, 0, 7); // slack 1: does not block
        sw.token_arrives(0);
        assert!(sw.can_propagate());
        assert!(sw.propagate()); // slack drops to 0: now blocks
        sw.token_arrives(0);
        assert!(!sw.can_propagate(), "zero-slack copy must block the token");
        assert_eq!(sw.pop_sendable(0), Some((0, 7)));
        assert!(sw.can_propagate(), "draining the copy unblocks propagation");
        assert!(sw.propagate());
        assert_eq!(sw.gt(), Gt::from_ticks(2));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn rejects_zero_ports() {
        let _: SwitchCore<()> = SwitchCore::new(0, 1);
    }

    /// A core seeded one tick before the era rollover propagates straight
    /// across it: the new GT is *greater* under the wrapping order even
    /// though its raw tick field reset to zero.
    #[test]
    fn guarantee_time_crosses_the_era_boundary() {
        let origin = Gt::from_parts(0, Gt::TICK_MASK);
        let mut sw: SwitchCore<()> = SwitchCore::starting_at(1, 1, origin);
        sw.token_arrives(0);
        assert!(sw.propagate());
        assert_eq!(sw.gt(), Gt::from_parts(1, 0));
        assert!(sw.gt() > origin);
        for _ in 0..5 {
            sw.token_arrives(0);
            assert!(sw.propagate());
        }
        assert_eq!(sw.gt(), Gt::from_parts(1, 5));
    }
}
