//! Deterministic fault injection for the distributed cluster runtime.
//!
//! A [`FaultPlan`] describes, with a seed, what goes wrong during a
//! placed run: per-link frame drops, duplication, reordering, bit
//! corruption, added latency, periodic link flaps, and one *abrupt*
//! node crash (the node dies mid-batch, without warning). A plan with
//! only a crash is how a mid-run node failure is run: checkpointed
//! recovery re-plans around the dead node and replays. Every
//! link derives its own [`XorShift`] stream from `(plan.seed, link
//! id)`, so a given plan injects exactly the same faults on every run —
//! which is what lets the differential chaos suite assert byte-exact
//! output equality under fire.
//!
//! The chaos layer sits *under* the resilient wire protocol: faults are
//! applied to encoded envelopes just before they enter a channel, and
//! the receiving end's checksum/sequence machinery is what has to
//! detect and repair them.

use crate::error::{ClusterError, NebulaError, Result};
use crate::source::XorShift;
use crate::topology::{NodeId, Topology};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// An abrupt, unannounced node death: after the doomed node has handled
/// `after_frames` frames it is killed mid-batch — its thread drops all
/// state and every channel without sending `Eos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The node to kill. Must not be the cloud root or host a source.
    pub node: NodeId,
    /// Frames the node handles before dying (0 = immediately).
    pub after_frames: u64,
}

/// A periodic link outage, indexed by frame count for determinism: of
/// every `period` transmissions on a link, the first `down` are lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// Cycle length in transmissions.
    pub period: u64,
    /// Transmissions lost at the start of each cycle.
    pub down: u64,
}

/// A seeded, deterministic schedule of injected faults.
///
/// Probabilities are per transmission and independent per link. The
/// plan validates up front ([`FaultPlan::validate`]) so an impossible
/// crash target is a clear planning error, not a late runtime surprise.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed from which every link derives its fault stream.
    pub seed: u64,
    /// Probability a transmission is silently dropped.
    pub drop_p: f64,
    /// Probability a transmission is delivered twice.
    pub dup_p: f64,
    /// Probability a transmission is held back and delivered after its
    /// successor (pairwise reorder).
    pub reorder_p: f64,
    /// Probability one random bit of a transmission is flipped.
    pub corrupt_p: f64,
    /// Extra latency added to every transmission.
    pub delay: Duration,
    /// Optional periodic link outage.
    pub flap: Option<LinkFlap>,
    /// Optional abrupt node crash.
    pub crash: Option<CrashFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for the builder).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            corrupt_p: 0.0,
            delay: Duration::ZERO,
            flap: None,
            crash: None,
        }
    }

    /// Sets the per-transmission drop probability.
    pub fn drop_frames(mut self, p: f64) -> Self {
        self.drop_p = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-transmission duplication probability.
    pub fn duplicate_frames(mut self, p: f64) -> Self {
        self.dup_p = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-transmission pairwise-reorder probability.
    pub fn reorder_frames(mut self, p: f64) -> Self {
        self.reorder_p = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-transmission bit-corruption probability.
    pub fn corrupt_frames(mut self, p: f64) -> Self {
        self.corrupt_p = p.clamp(0.0, 1.0);
        self
    }

    /// Adds fixed latency to every transmission.
    pub fn add_latency(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Makes every link flap: of every `period` transmissions, the
    /// first `down` are lost.
    pub fn flap_links(mut self, period: u64, down: u64) -> Self {
        self.flap = Some(LinkFlap {
            period: period.max(1),
            down: down.min(period.max(1) - 1),
        });
        self
    }

    /// Abruptly kills `node` after it has handled `after_frames` frames.
    pub fn crash_node(mut self, node: NodeId, after_frames: u64) -> Self {
        self.crash = Some(CrashFault { node, after_frames });
        self
    }

    /// Validates the plan against a topology before any thread spawns.
    /// The crash target must exist, must not be the cloud root (failing
    /// the root is unrecoverable — there is nowhere to migrate to), and
    /// must not host a source (`source_nodes`). The error lists every
    /// ineligible node with its reason.
    pub fn validate(&self, topo: &Topology, source_nodes: &[NodeId]) -> Result<()> {
        let Some(crash) = &self.crash else {
            return Ok(());
        };
        let mut problems = Vec::new();
        if crash.node.0 >= topo.nodes().len() {
            problems.push(format!("node #{} does not exist", crash.node.0));
        } else {
            let name = &topo.node(crash.node).name;
            if topo.cloud() == Some(crash.node) {
                problems.push(format!("'{name}' is the cloud root"));
            }
            if source_nodes.contains(&crash.node) {
                problems.push(format!("'{name}' hosts a source"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(NebulaError::Cluster(ClusterError::IneligibleFault {
                detail: problems.join("; "),
            }))
        }
    }
}

/// Shared fault/recovery counters, merged into
/// [`crate::cluster::ClusterMetrics`] when the run finishes.
#[derive(Debug, Default)]
pub(crate) struct ChaosStats {
    pub injected_drops: AtomicU64,
    pub injected_dups: AtomicU64,
    pub injected_corruptions: AtomicU64,
    pub injected_reorders: AtomicU64,
    pub retransmits: AtomicU64,
    pub corrupt_dropped: AtomicU64,
    pub duplicates_suppressed: AtomicU64,
    pub heartbeats: AtomicU64,
    pub ack_bytes: AtomicU64,
    /// Site threads spawned across all phases (survives a crashed
    /// phase, unlike the phase's own return value).
    pub sites_spawned: AtomicU64,
}

/// The one-shot trigger for an abrupt crash, shared by every thread of
/// a phase. Frame handling on the doomed node calls [`CrashSwitch::observe`];
/// once the counter reaches the threshold the switch trips and stays
/// tripped, and every thread that consults it winds down.
#[derive(Debug)]
pub(crate) struct CrashSwitch {
    pub node: NodeId,
    after_frames: u64,
    counter: AtomicU64,
    tripped: AtomicBool,
}

impl CrashSwitch {
    pub fn new(fault: CrashFault) -> Self {
        CrashSwitch {
            node: fault.node,
            after_frames: fault.after_frames,
            counter: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// Counts one frame handled by (or routed through) the doomed node;
    /// returns true once the crash has triggered.
    pub fn observe(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        if self.counter.fetch_add(1, Ordering::Relaxed) + 1 > self.after_frames {
            self.tripped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-link deterministic chaos: applied to each encoded envelope just
/// before it enters the channel. Owns a hold-back slot for pairwise
/// reordering; [`LinkChaos::release`] must be called when the link
/// drains so a held frame is not lost by the chaos layer itself.
pub(crate) struct LinkChaos {
    rng: XorShift,
    drop_p: f64,
    dup_p: f64,
    reorder_p: f64,
    corrupt_p: f64,
    delay: Duration,
    flap: Option<LinkFlap>,
    held: Option<Vec<u8>>,
    frame_idx: u64,
    pub drops: u64,
    pub dups: u64,
    pub corruptions: u64,
    pub reorders: u64,
}

impl LinkChaos {
    /// Chaos state for link `link_id`, seeded from the plan.
    pub fn new(plan: &FaultPlan, link_id: u64) -> Self {
        LinkChaos {
            rng: XorShift::new(splitmix64(plan.seed ^ splitmix64(link_id))),
            drop_p: plan.drop_p,
            dup_p: plan.dup_p,
            reorder_p: plan.reorder_p,
            corrupt_p: plan.corrupt_p,
            delay: plan.delay,
            flap: plan.flap,
            held: None,
            frame_idx: 0,
            drops: 0,
            dups: 0,
            corruptions: 0,
            reorders: 0,
        }
    }

    /// Applies the fault schedule to one outgoing transmission and
    /// returns what actually crosses the link: possibly nothing (drop,
    /// flap outage, or held for reordering), possibly a duplicate,
    /// possibly a corrupted copy, possibly a swapped pair.
    pub fn transmit(&mut self, bytes: Vec<u8>) -> Vec<Vec<u8>> {
        self.frame_idx += 1;
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        if let Some(flap) = self.flap {
            if self.frame_idx % flap.period < flap.down {
                self.drops += 1;
                return Vec::new();
            }
        }
        if self.rng.next_f64() < self.drop_p {
            self.drops += 1;
            return Vec::new();
        }
        let mut bytes = bytes;
        if self.rng.next_f64() < self.corrupt_p {
            let bit = self.rng.next_below(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            self.corruptions += 1;
        }
        if self.rng.next_f64() < self.reorder_p {
            match self.held.take() {
                // Hold this frame; it goes out after its successor.
                None => {
                    self.held = Some(bytes);
                    return Vec::new();
                }
                // Release the held frame after this one: a swap.
                Some(prev) => {
                    self.reorders += 1;
                    return vec![bytes, prev];
                }
            }
        }
        let mut out = Vec::with_capacity(2);
        if let Some(prev) = self.held.take() {
            self.reorders += 1;
            out.push(bytes.clone());
            out.push(prev);
        } else {
            out.push(bytes.clone());
        }
        if self.rng.next_f64() < self.dup_p {
            self.dups += 1;
            out.push(bytes);
        }
        out
    }

    /// Releases a frame still held for reordering (call when the link
    /// drains, so chaos itself never permanently loses a frame).
    pub fn release(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn link_chaos_is_deterministic_per_seed_and_link() {
        let plan = FaultPlan::seeded(7)
            .drop_frames(0.2)
            .duplicate_frames(0.1)
            .corrupt_frames(0.1)
            .reorder_frames(0.15);
        let run = |link: u64| {
            let mut chaos = LinkChaos::new(&plan, link);
            let mut out = Vec::new();
            for i in 0..200u32 {
                out.extend(chaos.transmit(i.to_le_bytes().to_vec()));
            }
            out.extend(chaos.release());
            out
        };
        assert_eq!(run(1), run(1), "same link, same faults");
        assert_ne!(run(1), run(2), "links fault independently");
    }

    #[test]
    fn chaos_conserves_frames_modulo_drops_and_dups() {
        let plan = FaultPlan::seeded(3)
            .drop_frames(0.3)
            .duplicate_frames(0.2)
            .reorder_frames(0.3);
        let mut chaos = LinkChaos::new(&plan, 9);
        let mut delivered = 0usize;
        for i in 0..500u32 {
            delivered += chaos.transmit(i.to_le_bytes().to_vec()).len();
        }
        delivered += chaos.release().iter().count();
        assert_eq!(
            delivered as u64,
            500 - chaos.drops + chaos.dups,
            "every non-dropped frame is delivered exactly once plus dups"
        );
        assert!(chaos.drops > 0 && chaos.dups > 0 && chaos.reorders > 0);
    }

    #[test]
    fn flap_drops_a_deterministic_fraction() {
        let plan = FaultPlan::seeded(1).flap_links(10, 3);
        let mut chaos = LinkChaos::new(&plan, 0);
        let mut lost = 0;
        for i in 0..100u32 {
            if chaos.transmit(i.to_le_bytes().to_vec()).is_empty() {
                lost += 1;
            }
        }
        assert_eq!(lost, 30, "3 of every 10 transmissions lost");
    }

    #[test]
    fn crash_switch_trips_once_after_threshold() {
        let sw = CrashSwitch::new(CrashFault {
            node: NodeId(1),
            after_frames: 3,
        });
        assert!(!sw.observe());
        assert!(!sw.observe());
        assert!(!sw.observe());
        assert!(sw.observe(), "fourth frame trips");
        assert!(sw.tripped());
        assert!(sw.observe(), "stays tripped");
    }

    #[test]
    fn validate_rejects_root_source_and_missing_nodes() {
        let (topo, sensors) = Topology::train_fleet(2);
        let cloud = topo.cloud().unwrap();
        let err = FaultPlan::seeded(0)
            .crash_node(cloud, 5)
            .validate(&topo, &sensors)
            .unwrap_err();
        assert!(err.to_string().contains("cloud root"), "{err}");
        let err = FaultPlan::seeded(0)
            .crash_node(sensors[0], 5)
            .validate(&topo, &sensors)
            .unwrap_err();
        assert!(err.to_string().contains("hosts a source"), "{err}");
        let err = FaultPlan::seeded(0)
            .crash_node(NodeId(999), 5)
            .validate(&topo, &sensors)
            .unwrap_err();
        assert!(err.to_string().contains("does not exist"), "{err}");
        // An edge node is eligible.
        let edge = topo
            .nodes()
            .iter()
            .enumerate()
            .find(|(i, n)| {
                Some(NodeId(*i)) != topo.cloud()
                    && !sensors.contains(&NodeId(*i))
                    && n.name.contains("edge")
            })
            .map(|(i, _)| NodeId(i))
            .unwrap();
        assert!(FaultPlan::seeded(0)
            .crash_node(edge, 5)
            .validate(&topo, &sensors)
            .is_ok());
    }
}
