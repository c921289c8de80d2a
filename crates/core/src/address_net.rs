//! The [`AddressNet`] abstraction: one interface over both models of the
//! timestamp-ordered address network, so [`crate::System`] (and every
//! future fabric variant) plugs into the event loop the same way.
//!
//! The paper's evaluation models the address network two ways:
//!
//! * the **fast** closed-form model ([`tss_net::FastOrderedNet`]) — the
//!   unloaded assumption of §4.3, where every broadcast's ordering
//!   instant is computed analytically;
//! * the **detailed** token-passing model ([`tss_net::DetailedNet`]) —
//!   every token and transaction hop on every fabric plane simulated on
//!   one calendar, with optional link occupancy creating the contention
//!   the paper leaves unmeasured.
//!
//! [`AddressNet`] is the seam between them, implemented directly on
//! [`FastOrderedNet`] and [`DetailedNet`]; both hand out the one delivery
//! type [`tss_net::Delivery`] (re-exported as [`AddrDelivery`]).
//! It is a *polled* interface built around three calls:
//!
//! 1. [`AddressNet::inject`] broadcasts a payload and returns a **poll
//!    hint** — the earliest instant at which draining may make progress;
//! 2. [`AddressNet::drain_for`] advances the model to `now`, asks the
//!    caller's target query once for each broadcast that became ready,
//!    and appends the endpoint copies the query named, whose ordering
//!    instants have been reached, to a caller-owned (and caller-reused)
//!    buffer;
//! 3. [`AddressNet::next_ready`] reports when to poll again (`None` once
//!    nothing is pending, which lets the caller's event loop quiesce even
//!    though the detailed model's token wave never stops).
//!
//! The target query lets a broadcast cost its stakeholders rather than
//! every endpoint: [`crate::System`] passes the coherence protocol's
//! `Protocol::snoop_targets`, which names the endpoints whose snoop can
//! act (for TS-Snoop, the nodes with a stake in the block). Every query is
//! answered before the caller dispatches any copy of the drain, so it
//! stays exact only if no endpoint gains a stake while the drain's copies
//! are dispatched — true of every protocol here, since a node gains a
//! stake only by issuing a miss, never in response to a snoop.
//! [`AddressNet::drain_into`] is the query that keeps every endpoint.
//!
//! The fast model's hints are exact (the closed form knows each ordering
//! instant at injection); the detailed model's hints walk the simulation
//! forward one internal event horizon at a time, so occupancy-induced GT
//! stalls push ordering instants later *and the caller observes them
//! later* — the feedback loop the `--contention` axis measures.
//!
//! # Equivalence
//!
//! Unloaded (`link_occupancy = 0`), the two models establish the same
//! total order at the same instants, up to the detailed model's one
//! conservative tick: an endpoint closes ordering tick `X` only when the
//! token advancing its guarantee time past `X` arrives, one link latency
//! after the fast model's just-in-time deadline. A fast model configured
//! with [`OrderedNetTiming::uniform`]`(link, S + 1)` therefore produces
//! **byte-identical ordering instants** to a detailed model with initial
//! slack `S` — asserted per delivery by
//! `tests/tests/equivalence.rs::address_net_unloaded_instants_match_fast_model`.
//!
//! ```
//! use std::sync::Arc;
//! use tss::address_net::AddressNet;
//! use tss_net::{
//!     DetailedNet, DetailedNetConfig, Fabric, FastOrderedNet, NodeId, OrderedNetTiming,
//! };
//! use tss_sim::{Duration, Time};
//!
//! // Polls a model exactly the way `System`'s event loop does and
//! // returns the ordering instant of every endpoint copy.
//! fn ordered_at(net: &mut dyn AddressNet<&'static str>) -> Vec<Time> {
//!     net.inject(Time::from_ns(40), NodeId(1), "GETS A");
//!     let mut out = Vec::new();
//!     while let Some(at) = net.next_ready() {
//!         net.drain_for(at, &mut |_, _| {}, &mut out); // every endpoint
//!     }
//!     out.iter().map(|d| d.ordered_at).collect()
//! }
//!
//! let fabric = Arc::new(Fabric::torus4x4());
//! // Detailed model: 15 ns links, slack 2, unloaded. Fast model: uniform
//! // 15 ns links, slack 3 = 2 + the detailed model's conservative tick.
//! let detailed = ordered_at(&mut DetailedNet::new(
//!     Arc::clone(&fabric),
//!     DetailedNetConfig::default(),
//! ));
//! let fast = ordered_at(&mut FastOrderedNet::new(
//!     fabric,
//!     OrderedNetTiming::uniform(Duration::from_ns(15), 3),
//! ));
//! assert_eq!(fast.len(), 16); // snooped by every endpoint, same instant
//! assert_eq!(detailed, fast);
//! ```

use std::sync::Arc;

use tss_net::{
    DetailedNet, DetailedNetConfig, Fabric, FastOrderedNet, NodeId, NodeSet, OrderedNetTiming,
    TrafficLedger,
};
use tss_sim::{Gt, Time};

use crate::config::{NetworkModelSpec, Timing};

/// One endpoint copy of a broadcast, delivered in the established total
/// order; `arrival` drives the §3 prefetch optimisation (controllers may
/// start a memory access at arrival and respond once ordered).
pub use tss_net::Delivery as AddrDelivery;

/// A model of the timestamp-ordered address network — see the module
/// docs for the polling contract.
pub trait AddressNet<P>: Send {
    /// Broadcasts `payload` from `src` at `now`, which must be
    /// non-decreasing across calls. Returns the earliest instant at which
    /// [`AddressNet::drain_for`] may make progress on this broadcast.
    fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Time;

    /// Advances the model to `now` (non-decreasing across calls, and at
    /// least as late as every prior `inject`) and appends to `out` the
    /// endpoint copies whose ordering instants have been reached, in the
    /// total order within each endpoint, for the endpoints `targets`
    /// names. `targets` is asked once per broadcast with copies in this
    /// drain, before the drain returns: it receives the payload and a set
    /// holding every endpoint, and removes the endpoints that need no
    /// copy. The result is exactly the full drain's copies filtered by
    /// the query, in the same order. Appending into a caller-owned buffer
    /// lets the event loop reuse one allocation across every poll.
    fn drain_for(
        &mut self,
        now: Time,
        targets: &mut dyn FnMut(&P, &mut NodeSet),
        out: &mut Vec<AddrDelivery<P>>,
    );

    /// [`AddressNet::drain_for`] for every endpoint. Kept only because the
    /// benchmark package calls it (`perfbench/src/mirror.rs`), which
    /// changes only together with the benchmark definition; delete it
    /// then.
    fn drain_into(&mut self, now: Time, out: &mut Vec<AddrDelivery<P>>) {
        self.drain_for(now, &mut |_, _| {}, out);
    }

    /// When to poll [`AddressNet::drain_for`] next: `Some` while any
    /// endpoint copy is still pending, `None` once quiescent. Callers
    /// re-arm one poll event from this after every drain.
    fn next_ready(&self) -> Option<Time>;

    /// Request-class traffic recorded so far.
    fn ledger(&self) -> &TrafficLedger;

    /// Idle token waves skipped in closed form: always 0, since the fast
    /// model has no waves and the detailed one simulates every wave. Kept
    /// only because the benchmark package calls it
    /// (`perfbench/src/mirror.rs`), which changes only together with the
    /// benchmark definition; delete it then.
    fn waves_skipped(&self) -> u64 {
        0
    }
}

/// The closed-form unloaded model — the default, and the paper's own
/// evaluation assumption.
impl<P: Send + Sync> AddressNet<P> for FastOrderedNet<P> {
    fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Time {
        FastOrderedNet::inject(self, now, src, payload)
    }

    fn drain_for(
        &mut self,
        now: Time,
        targets: &mut dyn FnMut(&P, &mut NodeSet),
        out: &mut Vec<AddrDelivery<P>>,
    ) {
        FastOrderedNet::drain_for(self, now, targets, out);
    }

    fn next_ready(&self) -> Option<Time> {
        self.next_ordered_at()
    }

    fn ledger(&self) -> &TrafficLedger {
        FastOrderedNet::ledger(self)
    }
}

/// The detailed token-passing model. Positive link occupancy makes
/// transactions queue in switches and zero-slack transactions stall the
/// token wave, so every ordering instant the coherence protocol observes
/// slips later — the contention feedback the fast model cannot express.
impl<P: Send + Sync + 'static> AddressNet<P> for DetailedNet<P> {
    fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Time {
        DetailedNet::inject(self, now, src, payload);
        // The ordering instant is not known in closed form; hand back the
        // next internal event horizon and let the poll chain walk forward.
        self.next_event_at().expect("token circulation never stops")
    }

    fn drain_for(
        &mut self,
        now: Time,
        targets: &mut dyn FnMut(&P, &mut NodeSet),
        out: &mut Vec<AddrDelivery<P>>,
    ) {
        DetailedNet::drain_for(self, now, targets, out);
    }

    fn next_ready(&self) -> Option<Time> {
        if self.outstanding() == 0 {
            return None;
        }
        self.next_event_at()
    }

    fn ledger(&self) -> &TrafficLedger {
        DetailedNet::ledger(self)
    }
}

/// Builds the address-network model a [`NetworkModelSpec`] describes,
/// taking link timing from the Table 2 knobs: the fast model charges
/// `d_ovh + d_switch·hops` with `timing.tick` GT cadence, the detailed
/// model charges a uniform `d_switch` per link (its token wave's cadence).
///
/// `gt_origin` seeds every guarantee-time counter; `Gt::ZERO` in normal
/// runs, near the era rollover in wraparound stress runs (which must be
/// observationally identical — every GT comparison is wrapping-safe).
///
/// `_threads` is ignored: both models run on the caller's thread. The
/// benchmark package's mirror of `System::run` still passes it; remove
/// the parameter together with that call.
pub fn build_address_net<P: Send + Sync + 'static>(
    spec: NetworkModelSpec,
    timing: &Timing,
    fabric: Arc<Fabric>,
    gt_origin: Gt,
    _threads: usize,
) -> Box<dyn AddressNet<P>> {
    match spec {
        NetworkModelSpec::Fast => Box::new(FastOrderedNet::new(
            fabric,
            OrderedNetTiming {
                hops: tss_net::HopTiming::Weighted {
                    d_ovh: timing.d_ovh,
                    d_switch: timing.d_switch,
                },
                tick: timing.tick,
                initial_slack: timing.initial_slack,
                gt_origin,
            },
        )),
        NetworkModelSpec::Detailed {
            link_occupancy,
            initial_slack,
            buffer_depth,
        } => Box::new(DetailedNet::new(
            fabric,
            DetailedNetConfig {
                link_latency: timing.d_switch,
                link_occupancy,
                initial_slack,
                buffer_depth,
                gt_origin,
            },
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_sim::Duration;

    fn poll_all<P>(net: &mut dyn AddressNet<P>, expected: usize) -> Vec<AddrDelivery<P>> {
        let mut out = Vec::new();
        while out.len() < expected {
            let at = net.next_ready().expect("deliveries still outstanding");
            net.drain_into(at, &mut out);
        }
        assert!(net.next_ready().is_none(), "net should be quiescent");
        out
    }

    #[test]
    fn fast_adapter_preserves_closed_form_instants() {
        let fabric = Arc::new(Fabric::butterfly16());
        let net: &mut dyn AddressNet<u32> =
            &mut FastOrderedNet::new(fabric, OrderedNetTiming::paper_default());
        let hint = net.inject(Time::from_ns(100), NodeId(0), 7u32);
        assert_eq!(hint, Time::from_ns(149)); // Table 2 one-way latency
        assert_eq!(net.next_ready(), Some(hint));
        let mut out = Vec::new();
        net.drain_into(hint, &mut out);
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|d| d.ordered_at == hint));
        assert!(net.next_ready().is_none());
    }

    #[test]
    fn detailed_adapter_delivers_everywhere_and_quiesces() {
        let fabric = Arc::new(Fabric::butterfly16());
        let net: &mut dyn AddressNet<u32> =
            &mut DetailedNet::new(fabric, DetailedNetConfig::default());
        for i in 0..6 {
            net.inject(Time::from_ns(40 + 3 * i), NodeId(i as u16), i as u32);
        }
        let out = poll_all(net, 6 * 16);
        assert_eq!(out.len(), 6 * 16);
        // Every endpoint saw every broadcast, in one consistent order.
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for d in &out {
            orders[d.dest.index()].push(*d.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
    }

    #[test]
    fn detailed_adapter_contention_delays_ordering() {
        let run = |occ: u64| {
            let fabric = Arc::new(Fabric::torus4x4());
            let net: &mut dyn AddressNet<u32> = &mut DetailedNet::new(
                fabric,
                DetailedNetConfig {
                    link_occupancy: Duration::from_ns(occ),
                    buffer_depth: 64,
                    ..DetailedNetConfig::default()
                },
            );
            for i in 0..8 {
                net.inject(Time::from_ns(40 + i), NodeId(0), i as u32);
            }
            poll_all(net, 8 * 16)
                .iter()
                .map(|d| d.ordered_at.as_ns())
                .max()
                .unwrap()
        };
        assert!(
            run(40) > run(0),
            "occupancy-induced stalls must push ordering instants later"
        );
    }

    #[test]
    #[should_panic(expected = "provisioned switch buffering")]
    fn detailed_adapter_enforces_buffer_depth() {
        let fabric = Arc::new(Fabric::torus4x4());
        let net: &mut dyn AddressNet<u32> = &mut DetailedNet::new(
            fabric,
            DetailedNetConfig {
                link_occupancy: Duration::from_ns(60),
                buffer_depth: 1, // one buffer entry per switch: any queueing trips it
                ..DetailedNetConfig::default()
            },
        );
        for i in 0..16 {
            net.inject(Time::from_ns(40 + i), NodeId(0), i as u32);
        }
        let mut sink = Vec::new();
        while net.next_ready().is_some() {
            let at = net.next_ready().unwrap();
            net.drain_into(at, &mut sink);
        }
    }

    /// A fixed target query: every fourth node by a payload-dependent
    /// offset, and no node at all for every eighth payload.
    fn fixed_query(payload: &u32, targets: &mut NodeSet) {
        let keep: Vec<NodeId> = targets
            .iter()
            .filter(|n| *payload & 7 != 0 && (n.0 as u32 ^ *payload) & 3 == 0)
            .collect();
        targets.clear();
        for n in keep {
            targets.insert(n);
        }
    }

    /// Every field of a delivery, payload included.
    type Fields = (u16, u16, u64, Gt, Time, Time, u32);

    fn fields(d: &AddrDelivery<u32>) -> Fields {
        (
            d.dest.0,
            d.src.0,
            d.seq,
            d.ot,
            d.arrival,
            d.ordered_at,
            *d.payload,
        )
    }

    /// Drives two copies of one net through the same bursty injection
    /// schedule, polling both exactly as `System` does: one drains every
    /// copy, the other only those `fixed_query` names. Each targeted
    /// drain must be the full drain filtered by the query, in order.
    fn targeted_drain_filters_the_full_drain(make: impl Fn() -> Box<dyn AddressNet<u32>>) {
        let (mut full, mut targeted) = (make(), make());
        let n = 16;
        let mut payload = 0u32;
        let mut multi = 0;
        let (mut all_copies, mut out_full, mut out_targeted) = (0, Vec::new(), Vec::new());
        // Twelve bursts of one to four broadcasts, then drain the rest.
        for burst in 0..=12u64 {
            let now = Time::from_ns(40 + 37 * burst);
            for src in 0..(1 + burst % 4) * u64::from(burst < 12) {
                payload += 1;
                // Pairs share a source, so one drain can order two
                // broadcasts of one source.
                let src = NodeId(((burst * 5 + src / 2 * 3) % n) as u16);
                full.inject(now, src, payload);
                targeted.inject(now, src, payload);
            }
            let horizon = now + Duration::from_ns(if burst < 12 { 37 } else { 1 << 30 });
            while let Some(at) = full.next_ready().filter(|&at| at < horizon) {
                assert_eq!(targeted.next_ready(), Some(at));
                full.drain_into(at, &mut out_full);
                targeted.drain_for(at, &mut fixed_query, &mut out_targeted);
                let broadcasts: std::collections::BTreeSet<u32> =
                    out_full.iter().map(|d| *d.payload).collect();
                multi += usize::from(broadcasts.len() > 1);
                all_copies += out_full.len();
                let want: Vec<Fields> = out_full
                    .iter()
                    .filter(|d| {
                        let mut set = NodeSet::all(n as usize);
                        fixed_query(&d.payload, &mut set);
                        set.contains(d.dest)
                    })
                    .map(fields)
                    .collect();
                let got: Vec<Fields> = out_targeted.iter().map(fields).collect();
                assert_eq!(got, want, "poll at {at:?}");
                out_full.clear();
                out_targeted.clear();
            }
        }
        assert_eq!(
            all_copies,
            payload as usize * n as usize,
            "every copy drained"
        );
        assert!(multi > 0, "some drains order several broadcasts");
    }

    #[test]
    fn targeted_fast_drains_filter_the_full_drain() {
        for fabric in [Fabric::butterfly16(), Fabric::torus4x4()] {
            let fabric = Arc::new(fabric);
            targeted_drain_filters_the_full_drain(|| {
                Box::new(FastOrderedNet::new(
                    Arc::clone(&fabric),
                    OrderedNetTiming::paper_default(),
                ))
            });
        }
    }

    #[test]
    fn targeted_detailed_drains_filter_the_full_drain() {
        for fabric in [Fabric::butterfly16(), Fabric::torus4x4()] {
            let fabric = Arc::new(fabric);
            targeted_drain_filters_the_full_drain(|| {
                Box::new(DetailedNet::new(
                    Arc::clone(&fabric),
                    DetailedNetConfig {
                        link_occupancy: Duration::from_ns(5),
                        ..DetailedNetConfig::default()
                    },
                ))
            });
        }
    }

    #[test]
    fn build_from_spec_selects_the_model() {
        let timing = Timing::default();
        let fast: Box<dyn AddressNet<u32>> = build_address_net(
            NetworkModelSpec::Fast,
            &timing,
            Arc::new(Fabric::torus4x4()),
            Gt::ZERO,
            0,
        );
        assert!(fast.next_ready().is_none());
        let mut detailed: Box<dyn AddressNet<u32>> = build_address_net(
            NetworkModelSpec::detailed(0),
            &timing,
            Arc::new(Fabric::torus4x4()),
            Gt::ZERO,
            0,
        );
        detailed.inject(Time::from_ns(0), NodeId(0), 1);
        assert!(detailed.next_ready().is_some());
    }
}
