//! Byte-level pin of [`GridReport`] JSON across simulator-internals swaps.
//!
//! PR 4 replaces the event calendar, de-duplicates the broadcast fan-out
//! and fast-forwards idle token waves — all of which must be *observably
//! invisible*: the same seed has to produce the same report, byte for
//! byte. This test pins a small but representative grid (all three
//! protocols, both address-network models, a multi-plane fabric,
//! perturbation jitter on) against a fixture generated before the swap.
//!
//! If a future PR changes results *intentionally* (new timing model,
//! schema bump), regenerate the fixture and say so in the PR:
//!
//! ```sh
//! cargo test -p tss-tests --test queue_swap_pin -- --ignored regenerate
//! ```

use std::path::PathBuf;

use tss::experiment::{ExperimentGrid, GridReport};
use tss::{NetworkModelSpec, ProtocolKind, TopologyKind};
use tss_workloads::paper;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/grid_pin.json")
}

fn contention_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/grid_pin_contention.json")
}

/// The pinned configuration: small enough for CI, wide enough to cross
/// every hot path the queue swap touches (fast closed form, detailed
/// token net on a single-plane torus and the four-plane butterfly,
/// directory protocols with no address net at all, §4.3 jitter).
fn pin_grid_from(gt_origin: u64) -> GridReport {
    ExperimentGrid::new("queue-swap-pin")
        .protocols(ProtocolKind::ALL)
        .topologies([TopologyKind::Torus4x4, TopologyKind::Butterfly16])
        .nets([NetworkModelSpec::Fast, NetworkModelSpec::detailed(5)])
        .workloads(vec![paper::barnes(0.002)])
        .seeds([0])
        .perturbation(4, 2)
        .gt_origin(gt_origin)
        .run()
        .expect("pin grid is valid")
}

fn pin_grid() -> GridReport {
    pin_grid_from(0)
}

/// A genuinely *contended* detailed-net cell: 20 ns link occupancy on the
/// torus, the configuration class that previously caught a fast-forward
/// shortcut firing while transactions were still in flight. The fast /
/// detailed(5) grid above never builds deep switch queues, so refactors
/// of the slack/GT bookkeeping get pinned here, where they are riskiest.
fn contention_pin_grid_from(gt_origin: u64) -> GridReport {
    ExperimentGrid::new("contention-pin")
        .protocols([ProtocolKind::TsSnoop])
        .topologies([TopologyKind::Torus4x4])
        .nets([NetworkModelSpec::detailed(20)])
        .workloads(vec![paper::barnes(0.002)])
        .seeds([0])
        .perturbation(4, 2)
        .gt_origin(gt_origin)
        .run()
        .expect("contention pin grid is valid")
}

fn contention_pin_grid() -> GridReport {
    contention_pin_grid_from(0)
}

#[test]
fn grid_report_bytes_are_pinned() {
    let fixture = std::fs::read_to_string(fixture_path())
        .expect("fixture missing: run the ignored `regenerate` test and commit the file");
    let fresh = pin_grid().to_json() + "\n";
    assert!(
        fresh == fixture,
        "GridReport bytes drifted from the committed fixture — the simulator \
         is no longer result-identical for the same seed. If the change is \
         intentional, regenerate tests/fixtures/grid_pin.json (see module docs)."
    );
}

#[test]
fn contended_grid_report_bytes_are_pinned() {
    let fixture = std::fs::read_to_string(contention_fixture_path())
        .expect("fixture missing: run the ignored `regenerate` test and commit the file");
    let fresh = contention_pin_grid().to_json() + "\n";
    assert!(
        fresh == fixture,
        "contended GridReport bytes drifted from the committed fixture — the \
         detailed token network is no longer result-identical for the same \
         seed under contention. If the change is intentional, regenerate \
         tests/fixtures/grid_pin_contention.json (see module docs)."
    );
}

/// The wraparound acceptance check: seeding every guarantee-time counter
/// a few ticks below the 48-bit era edge — so all GTs/OTs roll into era 1
/// within the first token wave — must reproduce the *same committed
/// fixtures, byte for byte*. `Gt`'s wrapping order and origin-relative
/// instants make the origin unobservable; this is the system-level proof.
#[test]
fn era_rollover_seeded_grid_matches_the_pinned_bytes() {
    let origin = tss_sim::Gt::from_parts(0, tss_sim::Gt::TICK_MASK - 3).as_raw();
    let fixture = std::fs::read_to_string(contention_fixture_path())
        .expect("fixture missing: run the ignored `regenerate` test and commit the file");
    assert!(
        contention_pin_grid_from(origin).to_json() + "\n" == fixture,
        "a run seeded just below the era rollover diverged from the origin-0 \
         fixture — guarantee-time wraparound is observable"
    );
    let fixture = std::fs::read_to_string(fixture_path())
        .expect("fixture missing: run the ignored `regenerate` test and commit the file");
    assert!(
        pin_grid_from(origin).to_json() + "\n" == fixture,
        "a fast-model run seeded just below the era rollover diverged from \
         the origin-0 fixture — ordering-time wraparound is observable"
    );
}

/// Writes the fixtures. Ignored so CI never overwrites the pins; run it by
/// hand only when a result change is intentional.
#[test]
#[ignore = "regenerates the pin fixtures; run manually"]
fn regenerate() {
    pin_grid()
        .write_json(fixture_path())
        .expect("write fixture");
    contention_pin_grid()
        .write_json(contention_fixture_path())
        .expect("write contention fixture");
}
