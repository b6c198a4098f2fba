//! Checkpoint storage for the chaos-hardened cluster runtime.
//!
//! During a chaos run the pump of every pipeline emits a
//! [`crate::wire::Frame::Barrier`] after each `checkpoint_every` source
//! batches. The barrier flows through the pipeline like any other frame
//! (so it cuts the stream at a well-defined point on every link), and
//! each participant deposits its part of the epoch here as the barrier
//! passes: the pump its operator snapshots, replay cursor and counters;
//! each site its operator-chain snapshot; and the cloud — once the
//! barrier has *aligned* across all live pipelines — the shared-tail
//! operators, collected results, and watermark state.
//!
//! An epoch is **complete** when the cloud part is present and every
//! pipeline that was still live at the cloud's cut has contributed its
//! pump and site parts. It is **usable** for restore when, additionally,
//! every contributed operator chain actually snapshotted (an operator
//! without state capture makes its chain `None`, forcing the epoch-0
//! full-replay fallback). Completed epochs prune everything older;
//! recovery consumes the newest usable epoch.

use crate::metrics::{Histogram, QueryMetrics};
use crate::ops::Operator;
use crate::record::RecordBuffer;
use crate::runtime::ProgressTracker;
use crate::value::EventTime;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// A pump's contribution to an epoch: the source-node operator chain
/// (if snapshottable), the replay cursor, and the ingest counters that
/// drive watermark cadence.
pub(crate) struct PumpPart {
    /// Snapshot of the source-node stages; `None` if any stage cannot
    /// capture state.
    pub ops: Option<Vec<Box<dyn Operator>>>,
    /// Data batches emitted when the barrier was sent (the
    /// [`crate::source::ReplaySource`] rewind target).
    pub batches: u64,
    /// Maximum event time seen (watermark generator state).
    pub max_ts: EventTime,
    /// Ingest-side counters at the cut.
    pub stats: QueryMetrics,
}

/// One site's operator-chain snapshot for an epoch.
pub(crate) struct SitePart {
    /// `None` if any operator in the chain cannot capture state.
    pub ops: Option<Vec<Box<dyn Operator>>>,
}

/// The cloud's contribution: shared-tail operators plus everything
/// [`crate::cluster`] keeps in its cloud state.
pub(crate) struct CloudPart {
    /// Snapshot of the shared-tail chain; `None` if not snapshottable.
    pub ops: Option<Vec<Box<dyn Operator>>>,
    /// Results collected so far.
    pub buffers: Vec<RecordBuffer>,
    /// Per-pipeline progress (frontiers, finished flags, combined
    /// clock) at the cut.
    pub progress: ProgressTracker,
    /// Per-buffer processing latency samples.
    pub latency: Histogram,
}

/// All parts deposited for one epoch.
#[derive(Default)]
pub(crate) struct EpochState {
    pub pumps: HashMap<usize, PumpPart>,
    pub sites: HashMap<(usize, usize), SitePart>,
    pub cloud: Option<CloudPart>,
}

impl EpochState {
    /// Complete: the cloud aligned, and every pipeline live at the cut
    /// contributed its pump part and all `expected_sites` chain parts.
    fn is_complete(&self, expected_sites: &[usize]) -> bool {
        let Some(cloud) = &self.cloud else {
            return false;
        };
        expected_sites.iter().enumerate().all(|(p, n_sites)| {
            cloud.progress.is_done(p as u64)
                || (self.pumps.contains_key(&p)
                    && (0..*n_sites).all(|s| self.sites.contains_key(&(p, s))))
        })
    }

    /// Usable: complete and every contributed chain snapshotted.
    fn is_usable(&self, expected_sites: &[usize]) -> bool {
        self.is_complete(expected_sites)
            && self.cloud.as_ref().is_some_and(|c| c.ops.is_some())
            && self.pumps.values().all(|p| p.ops.is_some())
            && self.sites.values().all(|s| s.ops.is_some())
    }
}

/// Per-pipeline totals deposited when a pipe finishes, so a pipeline
/// that is already done when a crash hits still reports accurate
/// metrics (its live operator state is gone with the threads).
#[derive(Default, Clone)]
pub(crate) struct PipeFinal {
    pub stats: QueryMetrics,
    pub pump_late: u64,
    pub site_late: u64,
}

struct StoreInner {
    epochs: BTreeMap<u64, EpochState>,
    /// Site-chain count per pipeline for the current phase (regrouping
    /// after a migration changes it).
    expected_sites: Vec<usize>,
    finals: Vec<Option<PipeFinal>>,
    taken: u64,
    last_sealed: Option<u64>,
}

/// Thread-shared checkpoint storage for one chaos run.
pub(crate) struct CheckpointStore {
    inner: Mutex<StoreInner>,
}

impl CheckpointStore {
    pub fn new(n_pipes: usize) -> Self {
        CheckpointStore {
            inner: Mutex::new(StoreInner {
                epochs: BTreeMap::new(),
                expected_sites: vec![0; n_pipes],
                finals: vec![None; n_pipes],
                taken: 0,
                last_sealed: None,
            }),
        }
    }

    /// Declares how many site chains each pipeline runs this phase.
    pub fn set_expected_sites(&self, sites: Vec<usize>) {
        self.inner.lock().expected_sites = sites;
    }

    pub fn put_pump(&self, epoch: u64, pipe: usize, part: PumpPart) {
        let mut g = self.inner.lock();
        g.epochs.entry(epoch).or_default().pumps.insert(pipe, part);
        g.seal(epoch);
    }

    pub fn put_site(&self, epoch: u64, pipe: usize, site: usize, part: SitePart) {
        let mut g = self.inner.lock();
        g.epochs
            .entry(epoch)
            .or_default()
            .sites
            .insert((pipe, site), part);
        g.seal(epoch);
    }

    pub fn put_cloud(&self, epoch: u64, part: CloudPart) {
        let mut g = self.inner.lock();
        g.epochs.entry(epoch).or_default().cloud = Some(part);
        g.seal(epoch);
    }

    /// Records a pipeline's final ingest stats and pump-stage late
    /// drops (deposited by the pump at its end-of-stream; overwritten
    /// if the pipeline re-runs after recovery).
    pub fn record_pump_final(&self, pipe: usize, stats: QueryMetrics, pump_late: u64) {
        let mut g = self.inner.lock();
        let fin = g.finals[pipe].get_or_insert_with(PipeFinal::default);
        fin.stats = stats;
        fin.pump_late = pump_late;
    }

    /// Adds one site chain's final late-drop count for `pipe`
    /// (deposited as each site drains its end-of-stream).
    pub fn add_site_final_late(&self, pipe: usize, late: u64) {
        let mut g = self.inner.lock();
        g.finals[pipe]
            .get_or_insert_with(PipeFinal::default)
            .site_late += late;
    }

    pub fn final_for(&self, pipe: usize) -> Option<PipeFinal> {
        self.inner.lock().finals[pipe].clone()
    }

    /// Completed checkpoints over the run (sealed epochs).
    pub fn checkpoints_taken(&self) -> u64 {
        self.inner.lock().taken
    }

    /// Consumes the newest usable epoch for restore. Clears all stored
    /// epochs either way (phase 2 re-deposits under its own grouping)
    /// and voids the finals of every pipeline not done at the cut, so a
    /// re-run pipeline cannot double-report stale totals.
    pub fn take_for_restore(&self) -> Option<(u64, EpochState)> {
        let mut g = self.inner.lock();
        let epoch = g
            .epochs
            .iter()
            .rev()
            .find(|(_, st)| st.is_usable(&g.expected_sites))
            .map(|(e, _)| *e)?;
        let st = g.epochs.remove(&epoch)?;
        g.epochs.clear();
        if let Some(cloud) = &st.cloud {
            for p in 0..g.finals.len() {
                if !cloud.progress.is_done(p as u64) {
                    g.finals[p] = None;
                }
            }
        }
        Some((epoch, st))
    }

    /// Clears every stored epoch and final (epoch-0 fallback: the whole
    /// run restarts from scratch).
    pub fn reset(&self) {
        let mut g = self.inner.lock();
        g.epochs.clear();
        g.last_sealed = None;
        for f in &mut g.finals {
            *f = None;
        }
    }
}

impl StoreInner {
    /// Checks whether `epoch` just became complete; if so, counts it
    /// and prunes every older epoch (recovery only ever wants the
    /// newest complete one). A redundant part deposited into an
    /// already-sealed epoch must not double-count.
    fn seal(&mut self, epoch: u64) {
        let complete = self
            .epochs
            .get(&epoch)
            .is_some_and(|st| st.is_complete(&self.expected_sites));
        if complete && self.last_sealed.is_none_or(|last| epoch > last) {
            let stale: Vec<u64> = self.epochs.range(..epoch).map(|(e, _)| *e).collect();
            for e in stale {
                self.epochs.remove(&e);
            }
            self.taken += 1;
            self.last_sealed = Some(epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump_part(snapshottable: bool) -> PumpPart {
        PumpPart {
            ops: snapshottable.then(Vec::new),
            batches: 4,
            max_ts: 0,
            stats: QueryMetrics::default(),
        }
    }

    fn cloud_part(done: &[bool]) -> CloudPart {
        let mut progress = ProgressTracker::with_origins(done.len() as u64);
        for (p, d) in done.iter().enumerate() {
            if *d {
                progress.finish(p as u64);
            }
        }
        CloudPart {
            ops: Some(Vec::new()),
            buffers: Vec::new(),
            progress,
            latency: Histogram::new(),
        }
    }

    #[test]
    fn epoch_completes_only_with_all_parts() {
        let store = CheckpointStore::new(2);
        store.set_expected_sites(vec![1, 1]);
        store.put_pump(1, 0, pump_part(true));
        store.put_site(1, 0, 0, SitePart { ops: Some(vec![]) });
        store.put_cloud(1, cloud_part(&[false, false]));
        assert!(store.take_for_restore().is_none(), "pipe 1 parts missing");
        store.put_pump(1, 0, pump_part(true));
        store.put_site(1, 0, 0, SitePart { ops: Some(vec![]) });
        store.put_cloud(1, cloud_part(&[false, false]));
        store.put_pump(1, 1, pump_part(true));
        store.put_site(1, 1, 0, SitePart { ops: Some(vec![]) });
        let (epoch, _) = store.take_for_restore().expect("complete now");
        assert_eq!(epoch, 1);
        assert!(store.checkpoints_taken() >= 1);
    }

    #[test]
    fn done_pipes_need_no_parts() {
        let store = CheckpointStore::new(2);
        store.set_expected_sites(vec![1, 1]);
        store.put_pump(3, 0, pump_part(true));
        store.put_site(3, 0, 0, SitePart { ops: Some(vec![]) });
        // Pipe 1 already finished at the cloud's cut.
        store.put_cloud(3, cloud_part(&[false, true]));
        let (epoch, st) = store.take_for_restore().expect("pipe 1 exempt");
        assert_eq!(epoch, 3);
        assert!(st.cloud.unwrap().progress.is_done(1));
    }

    #[test]
    fn unsnapshottable_chain_blocks_restore() {
        let store = CheckpointStore::new(1);
        store.set_expected_sites(vec![0]);
        store.put_pump(1, 0, pump_part(false));
        store.put_cloud(1, cloud_part(&[false]));
        assert!(
            store.take_for_restore().is_none(),
            "complete but not usable: epoch-0 fallback required"
        );
    }

    #[test]
    fn restore_takes_newest_and_voids_live_finals() {
        let store = CheckpointStore::new(2);
        store.set_expected_sites(vec![0, 0]);
        store.record_pump_final(0, QueryMetrics::default(), 0);
        store.record_pump_final(1, QueryMetrics::default(), 2);
        store.add_site_final_late(1, 3);
        for epoch in 1..=3 {
            store.put_pump(epoch, 0, pump_part(true));
            store.put_pump(epoch, 1, pump_part(true));
            store.put_cloud(epoch, cloud_part(&[false, true]));
        }
        let (epoch, _) = store.take_for_restore().expect("usable");
        assert_eq!(epoch, 3, "newest usable epoch wins");
        assert!(
            store.final_for(0).is_none(),
            "live pipe re-runs: its stale final is void"
        );
        let kept = store
            .final_for(1)
            .expect("done pipe keeps its final totals");
        assert_eq!(kept.pump_late + kept.site_late, 5);
        assert!(store.take_for_restore().is_none(), "store drained");
    }
}
