//! Regression tests: the simulator's event order is pinned. Seeded runs —
//! through a lossy, duplicating, reordering network with a mid-run
//! partition, the configuration that exercises every branch of the
//! send/deliver loop — must reproduce the trace and metric digests recorded
//! before the event queue moved onto a slab, at both a small and a medium
//! cluster size. Comparing two runs of one build would let a queue that
//! breaks `(at, seq)` ties differently, but consistently, pass; the
//! recorded digests do not.

use polyvalues::prelude::*;
use polyvalues::simnet::MetricsSnapshot;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One full seeded run; returns the trace text and the metrics snapshot.
fn run(seed: u64, sites: u32) -> (String, MetricsSnapshot) {
    let items = u64::from(sites) * 4;
    let mut cluster = ClusterBuilder::new(sites, Directory::Mod(sites))
        .seed(seed)
        .net(NetConfig {
            drop_prob: 0.05,
            dup_prob: 0.05,
            reorder_window: SimDuration::from_millis(2),
            ..NetConfig::default()
        })
        .engine(CommitProtocol::Polyvalue)
        .uniform_items(items, 500)
        .collect_trace()
        .client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(items, 100.0, 40).with_limit(120)),
        )
        .build();
    // A partition and heal force the in-doubt machinery (polyvalue installs,
    // outcome propagation) through the delivery loop.
    cluster
        .world
        .schedule_partition(SimTime::from_millis(500), NodeId(0), NodeId(1));
    cluster
        .world
        .schedule_heal(SimTime::from_secs(2), NodeId(0), NodeId(1));
    cluster.run_until(SimTime::from_secs(30));
    (cluster.trace().to_text(), cluster.world.metrics().snapshot())
}

/// `(seed, sites, trace digest, metrics-JSON digest, net.delivered,
/// client.committed)`, recorded while the queue still held whole events;
/// the metrics digests were re-recorded from that same event order when the
/// WAL's segment counter left the metrics.
const PINNED: [(u64, u32, u64, u64, u64, u64); 6] = [
    (1, 3, 0xbe7303a5a47b5283, 0x808d2d852b300df0, 3493, 74),
    (7, 3, 0x05a351786bdaa2c0, 0x14bb0215efd337c2, 3091, 82),
    (42, 3, 0x7196ec24a36571bc, 0x1652827484bdfd50, 3312, 80),
    (1, 10, 0xfddfa1b3e1e84925, 0x8ab782180786e964, 2293, 89),
    (7, 10, 0x0778faf7fd4aad9d, 0xfa651ae83bd14344, 2607, 98),
    (42, 10, 0x10e328e97d60b5d2, 0xd8ae56974be06440, 2408, 85),
];

#[test]
fn traces_and_metrics_match_the_pinned_digests() {
    for (seed, sites, trace_digest, json_digest, delivered, committed) in PINNED {
        let (trace, snapshot) = run(seed, sites);
        let at = format!("seed {seed}, {sites} sites");
        assert!(!trace.is_empty(), "{at}: the run must emit trace events");
        assert_eq!(snapshot.counters["net.delivered"], delivered, "{at}: net.delivered");
        assert_eq!(snapshot.counters["client.committed"], committed, "{at}: client.committed");
        assert_eq!(fnv1a(trace.as_bytes()), trace_digest, "{at}: trace digest");
        assert_eq!(fnv1a(snapshot.to_json().as_bytes()), json_digest, "{at}: metrics JSON digest");
    }
}

#[test]
fn different_seeds_still_diverge() {
    // The pinned digests must not be vacuous: distinct seeds perturb
    // network timing and therefore the trace stream.
    let a = run(1, 3);
    let b = run(7, 3);
    assert_ne!(a.0, b.0, "distinct seeds must give distinct traces");
}
