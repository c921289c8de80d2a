//! Size pins for the hot-path types, runnable as a dedicated CI check
//! (`cargo test -p tss-tests --test size_pins`).
//!
//! Every one of these types sits on the simulator's hot path: `Gt` and
//! `GtKey` inside every switch and reorder queue, `Msg` inside every
//! scheduled event, `ProtoAction`/`ProtoEvent` through the per-dispatch
//! scratch buffers. Growing any of them silently taxes the whole event
//! loop, so a PR that trips a pin must either shrink the type back or
//! consciously re-pin it with a perf measurement.
//!
//! The in-crate companions (compile-time `const` asserts next to the type
//! definitions) catch the same regressions at build time; this test is
//! the single place CI names them all, including two private pins: the
//! calendar overflow entry inside `tss_sim::queue` (≤ 16 bytes) and the
//! detailed token net's calendar event `Ev` inside
//! `tss_net::token::net` (≤ 12 bytes).

use std::mem::size_of;

use tss_proto::{AddrTxn, Msg, ProtoAction, ProtoEvent};
use tss_sim::{Duration, Gt, GtKey, Time};

#[test]
fn time_types_are_word_sized() {
    // One word each: these are copied by value on every event.
    assert_eq!(size_of::<Gt>(), 8, "Gt must stay one packed word");
    assert_eq!(size_of::<Time>(), 8);
    assert_eq!(size_of::<Duration>(), 8);
    // Two words: the (gt, tiebreak) ordering key of every reorder/merge
    // heap entry. Gt's niche-free u64 layout keeps Option<GtKey> cheap
    // too, but the pin is on the key itself.
    assert_eq!(size_of::<GtKey>(), 16, "GtKey must stay two words");
}

#[test]
fn protocol_payloads_stay_pinned() {
    assert!(size_of::<Msg>() <= 24, "Msg grew past 3 words");
    assert!(size_of::<AddrTxn>() <= 16, "AddrTxn grew past 2 words");
    assert!(
        size_of::<ProtoAction>() <= 40,
        "ProtoAction grew past 5 words"
    );
    assert!(
        size_of::<ProtoEvent>() <= 40,
        "ProtoEvent grew past 5 words"
    );
}

#[test]
fn ordering_keys_cost_nothing_over_their_parts() {
    // GtKey is exactly its two fields — no padding, no discriminant.
    assert_eq!(size_of::<GtKey>(), size_of::<Gt>() + size_of::<u64>());
    // And Gt is a true newtype over the raw packed word.
    assert_eq!(size_of::<Gt>(), size_of::<u64>());
}
