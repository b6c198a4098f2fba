//! The distributed cluster runtime: executing placed query plans across
//! topology nodes.
//!
//! Where [`crate::topology`] only *scores* a placement analytically,
//! this module runs it: every node that hosts part of the plan gets its
//! own thread driving its operator sub-chain, and consecutive nodes are
//! joined by bounded channels that carry [`crate::wire`]-encoded frames.
//! Each frame crossing a topology link is accounted — bytes, records,
//! frames, queue depth, and the transfer time the link's bandwidth and
//! latency imply — into [`ClusterMetrics`], turning the paper's "process
//! at the edge to cut uplink traffic" claim into measured numbers.
//!
//! ## Execution model
//!
//! [`ClusterEnvironment::run_placed`] computes a [`Placement`] per
//! hosted source, groups consecutive same-node stages into *sites*, and
//! wires them source → edge → cloud:
//!
//! - the **pump** polls the source on its own thread, runs the stages
//!   placed on the source node, and generates watermarks exactly like
//!   [`crate::runtime::StreamEnvironment::run`];
//! - **edge sites** decode incoming frames, drive their sub-chain, and
//!   re-encode outputs downstream — watermarks and end-of-stream travel
//!   as control frames, so event-time windows close correctly across
//!   node boundaries;
//! - the **cloud site** fans in all pipelines, advancing its event-time
//!   clock to the *minimum* watermark across live inputs (the standard
//!   distributed watermark rule), runs the shared tail of the plan, and
//!   collects results. Delivery is order-normalized like
//!   `run_partitioned`, so results are deterministic and comparable to
//!   the single-process executors with `==`.
//!
//! ## Edge pre-aggregation
//!
//! Under [`PlacementStrategy::EdgeFirst`], a query whose first stateful
//! operator is a splittable time window (see [`crate::preagg`]) is
//! split: each edge runs a [`WindowPartialOp`] aggregating records into
//! shared `gcd(size, slide)`-wide slices and ships **one partial row
//! per slice** — not one per overlapping window — and a
//! [`WindowMergeOp`] folds the per-edge slice partials at the cloud and
//! materializes finished windows. Only aggregated rows cross the
//! uplink, and sliding windows stop re-shipping the content their
//! overlaps share — the measured [`ClusterMetrics::uplink_bytes`]
//! reduction versus [`PlacementStrategy::CloudOnly`] is the
//! demonstration's headline number.
//!
//! ## Failure re-planning and chaos hardening
//!
//! Moving work off a failed node has one mechanism: checkpointed crash
//! recovery. [`ClusterEnvironment::run_placed_chaos`] runs the placed
//! plan under a seeded [`FaultPlan`]: every inter-site channel may
//! drop, duplicate, reorder, corrupt and delay frames
//! deterministically, and one non-source node may be killed
//! *abruptly* — mid-batch, after it has handled a given number of
//! frames. A plan with only a crash
//! (`FaultPlan::seeded(s).crash_node(node, after_frames)`) is a plain
//! mid-run node failure. Three mechanisms keep the output
//! byte-identical to an undisturbed [`crate::runtime::StreamEnvironment::run`]:
//!
//! - every link speaks the resilient wire protocol of the internal
//!   `reliable` module (CRC32 envelopes, per-link sequence numbers,
//!   cumulative acks, NACK/timeout retransmission, heartbeats), so the
//!   operator pipeline sees a perfect in-order exactly-once stream;
//! - pumps emit [`Frame::Barrier`] markers every
//!   [`ClusterConfig::checkpoint_every`] batches; operator snapshots
//!   flow into an internal `CheckpointStore` as the barrier passes
//!   each site,
//!   and the cloud seals the epoch once the barrier has aligned across
//!   all live pipelines;
//! - after a crash, the topology re-plans around the dead node
//!   ([`Topology::fail_node`]), operator state restores from the newest
//!   sealed checkpoint (or everything recompiles for an epoch-0 full
//!   replay when some operator cannot snapshot), sources rewind via
//!   [`crate::source::ReplaySource`], and the run resumes — re-emitting
//!   exactly the records the crash swallowed.

use crate::analysis::{self, AnalysisContext, AnalysisOptions, AnalysisReport, CapabilityRegistry};
use crate::chaos::{ChaosStats, CrashSwitch, FaultPlan, LinkChaos};
use crate::checkpoint::{CheckpointStore, CloudPart, PumpPart, SitePart};
use crate::error::{ClusterError, NebulaError, Result};
use crate::expr::{FunctionRegistry, Plugin};
use crate::metrics::{Histogram, QueryMetrics};
use crate::ops::{chain_late_drops, Operator};
use crate::preagg::{split_window, SplitWindow, WindowMergeOp, WindowPartialOp};
use crate::query::{compile_ops, LogicalOp, Query};
use crate::record::{RecordBuffer, StreamMessage};
use crate::reliable::{AckMsg, ReliableRx, ReliableTx, RxEvent};
use crate::runtime::{resolve_ts_col, ProgressTracker};
use crate::schema::SchemaRef;
use crate::sink::{merge_partitions, Sink};
use crate::source::{ReplaySource, Source, SourceBatch, WatermarkStrategy};
use crate::telemetry::{
    build_report, instrument_chain, ChainTelemetry, Gauges, NodeSnapshot, QueryReport,
    TelemetryConfig, TelemetrySampler, TraceKind, TraceRing, COORDINATOR_ORIGIN,
};
use crate::topology::{place, NodeId, NodeKind, Placement, PlacementStrategy, Topology};
use crate::value::EventTime;
use crate::wire::{decode_frame, encode_frame, Frame, WireRegistry};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shorthand for coordinator-side bookkeeping invariants that used to
/// be `expect()` panics on cluster hot paths.
fn internal(msg: &str) -> NebulaError {
    ClusterError::Internal(msg.into()).into()
}

/// Cluster runtime tuning knobs (the distributed analogue of
/// [`crate::runtime::EnvConfig`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Records per source poll.
    pub buffer_size: usize,
    /// Emit a watermark every N source batches (per pipeline).
    pub watermark_every: u64,
    /// Consecutive idle polls before a pump gives up.
    pub idle_limit: u64,
    /// Capacity (frames) of each inter-site channel.
    pub channel_capacity: usize,
    /// Split splittable windows into edge partials + cloud merge under
    /// [`PlacementStrategy::EdgeFirst`].
    pub preaggregate: bool,
    /// Source-side columnar batching policy for each site's local
    /// stage chain (see [`crate::runtime::ColumnarMode`]). Buffers
    /// materialize back to rows at the wire boundary, so frame format
    /// and byte accounting are identical either way.
    pub columnar: crate::runtime::ColumnarMode,
    /// Chaos runs: emit a checkpoint barrier every N source batches
    /// per pipeline (crash recovery restores from the newest epoch the
    /// cloud sealed).
    pub checkpoint_every: u64,
    /// Runtime telemetry knobs: per-operator instrumentation, the
    /// cloud-side sampling cadence, per-node snapshot shipping over the
    /// wire, and trace-event retention.
    pub telemetry: TelemetryConfig,
    /// Lint-level overrides for the pre-flight static analyzer (see
    /// [`crate::analysis`]).
    pub analysis: AnalysisOptions,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            buffer_size: 1024,
            watermark_every: 4,
            idle_limit: 100_000,
            channel_capacity: 8,
            preaggregate: true,
            columnar: crate::runtime::ColumnarMode::Auto,
            checkpoint_every: 4,
            telemetry: TelemetryConfig::default(),
            analysis: AnalysisOptions::new(),
        }
    }
}

/// Measured traffic over one topology link (same indexing as
/// [`Topology::links`]).
#[derive(Debug, Clone, Default)]
pub struct LinkMetrics {
    /// Frames (data + control) that crossed the link.
    pub frames: u64,
    /// Records carried by those frames.
    pub records: u64,
    /// Wire-encoded bytes that crossed the link.
    pub bytes: u64,
    /// Maximum observed channel queue depth (frames in flight).
    pub max_queue_depth: u64,
    /// Transfer time the link's bandwidth/latency imply for this
    /// traffic (accounted, not slept: per frame, latency plus
    /// bytes / bandwidth).
    pub simulated_transfer_ms: f64,
}

/// Measured cluster-wide traffic for one placed run.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// Per-link traffic, indexed like [`Topology::links`].
    pub links: Vec<LinkMetrics>,
    /// Bytes that crossed any link into a cloud node — the scarce
    /// cellular uplink (the measured counterpart of
    /// [`crate::topology::NetworkCost::cloud_uplink_bytes`]).
    pub uplink_bytes: u64,
    /// Records that crossed into a cloud node.
    pub uplink_records: u64,
    /// Frames that crossed into a cloud node.
    pub uplink_frames: u64,
    /// Stages migrated off a crashed node by re-planning.
    pub migrated_stages: usize,
    /// Re-planning rounds triggered by crashes.
    pub replans: u32,
    /// Site threads spawned over the run (all phases).
    pub sites: usize,
    /// True when the run split a window into edge partials + cloud merge.
    pub preaggregated: bool,
    /// Chaos runs: envelopes retransmitted after a NACK (a corrupt,
    /// missing or probed-for envelope; a slow receiver causes none).
    pub retransmits: u64,
    /// Chaos runs: envelopes dropped by receivers for CRC mismatch.
    pub corrupt_dropped: u64,
    /// Chaos runs: duplicate envelopes suppressed by receivers.
    pub duplicates_suppressed: u64,
    /// Chaos runs: checkpoints the cloud sealed (complete epochs).
    pub checkpoints_taken: u64,
    /// Chaos runs: heartbeats sent over quiet links.
    pub heartbeats: u64,
    /// Chaos runs: bytes of ack/nack traffic on reverse channels.
    pub ack_bytes: u64,
    /// Chaos runs: faults the plan actually injected — drops,
    /// duplicates, corruptions and reorders across all links (including
    /// links a crash tore down), plus [`Self::crashes`].
    pub faults_injected: u64,
    /// Chaos runs: node crashes that happened (0 or 1).
    pub crashes: u64,
    /// Crash recovery time: detection of the dead node to completion
    /// of the state restore (0 when no crash happened).
    pub recovery_ms: f64,
}

/// Everything a placed run reports.
#[derive(Debug)]
pub struct ClusterReport {
    /// End-to-end query metrics (ingest at the pumps, delivery at the
    /// cloud), comparable with the single-process executors.
    pub metrics: QueryMetrics,
    /// Measured per-link traffic.
    pub cluster: ClusterMetrics,
    /// The placement used per hosted source (post-re-planning).
    pub placements: Vec<Placement>,
    /// Runtime telemetry: the merged per-operator breakdown, the
    /// cloud-side sampled time series, per-node snapshots fanned in
    /// over the wire, and the trace-event log. Empty (no operators, no
    /// samples) when [`TelemetryConfig::enabled`] is off.
    pub telemetry: QueryReport,
}

struct HostedSource {
    node: NodeId,
    source: Box<dyn Source>,
    watermark: WatermarkStrategy,
}

/// The distributed runtime: a topology plus sources hosted on its nodes.
pub struct ClusterEnvironment {
    topo: Topology,
    registry: FunctionRegistry,
    wire: WireRegistry,
    config: ClusterConfig,
    sources: HashMap<String, Vec<HostedSource>>,
    /// Static-analysis capabilities (opaque-type producers), merged
    /// from loaded plugins; live wire-codec tags are added at analysis
    /// time from [`Self::wire`].
    capabilities: CapabilityRegistry,
}

impl ClusterEnvironment {
    /// An environment over `topo` with builtin functions and defaults.
    pub fn new(topo: Topology) -> Self {
        ClusterEnvironment {
            topo,
            registry: FunctionRegistry::with_builtins(),
            wire: WireRegistry::new(),
            config: ClusterConfig::default(),
            sources: HashMap::new(),
            capabilities: CapabilityRegistry::new(),
        }
    }

    /// An environment with a custom configuration.
    pub fn with_config(topo: Topology, config: ClusterConfig) -> Self {
        ClusterEnvironment {
            config,
            ..ClusterEnvironment::new(topo)
        }
    }

    /// The topology (mutated by failure re-planning).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (pre-run churn experiments).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The function registry (for registrations).
    pub fn registry_mut(&mut self) -> &mut FunctionRegistry {
        &mut self.registry
    }

    /// The wire codec registry (for opaque plugin payloads).
    pub fn wire_registry_mut(&mut self) -> &mut WireRegistry {
        &mut self.wire
    }

    /// The configuration (for tuning after construction).
    pub fn config_mut(&mut self) -> &mut ClusterConfig {
        &mut self.config
    }

    /// Loads a plugin's functions into the registry and merges its
    /// static-analysis capabilities.
    pub fn load_plugin(&mut self, plugin: &dyn Plugin) -> Result<()> {
        self.registry.load_plugin(plugin)?;
        self.capabilities.merge(&plugin.capabilities());
        Ok(())
    }

    /// The static-analysis capability registry (for manual additions
    /// beyond what loaded plugins declare).
    pub fn capabilities_mut(&mut self) -> &mut CapabilityRegistry {
        &mut self.capabilities
    }

    /// Analyzes `query` for placed execution under `strategy` without
    /// running it — the same pre-flight [`Self::run_placed`] performs.
    /// The analyzer sees the hosted sources' watermark strategies, the
    /// loaded plugins' capabilities, and the live wire-codec tags.
    pub fn analyze(&self, query: &Query, strategy: PlacementStrategy) -> Result<AnalysisReport> {
        let hosted = self
            .sources
            .get(query.source())
            .ok_or_else(|| NebulaError::Plan(format!("unknown source '{}'", query.source())))?;
        let mut capabilities = self.capabilities.clone();
        for tag in self.wire.tags() {
            capabilities.register_wire_tag(tag);
        }
        let ctx = AnalysisContext {
            target: analysis::Target::Placed {
                edge_first: strategy == PlacementStrategy::EdgeFirst,
                preaggregate: self.config.preaggregate,
                pipelines: hosted.len(),
            },
            watermarks: hosted.iter().map(|h| h.watermark.clone()).collect(),
            capabilities,
            options: self.config.analysis.clone(),
        };
        Ok(analysis::analyze(
            query,
            hosted[0].source.schema(),
            &self.registry,
            &ctx,
        ))
    }

    /// Hosts a source for stream `name` on `node`. A stream may be
    /// hosted on several nodes (one per train): the placed query then
    /// runs one edge pipeline per hosted source, fanning into the cloud.
    pub fn add_source(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
        source: Box<dyn Source>,
        watermark: WatermarkStrategy,
    ) {
        self.sources
            .entry(name.into())
            .or_default()
            .push(HostedSource {
                node,
                source,
                watermark,
            });
    }

    /// Runs `query` distributed over the topology under `strategy`,
    /// delivering order-normalized results to `sink`. Consumes the
    /// hosted sources (only on a valid plan; a compile error leaves them
    /// registered). The correctness contract matches the single-process
    /// executors: identical order-normalized results and
    /// `records_in`/`records_out` counters.
    pub fn run_placed(
        &mut self,
        query: &Query,
        strategy: PlacementStrategy,
        sink: &mut dyn Sink,
    ) -> Result<ClusterReport> {
        self.run_inner(query, strategy, None, sink)
    }

    /// Like [`Self::run_placed`], but under a seeded [`FaultPlan`]:
    /// every link deterministically drops, duplicates, reorders,
    /// corrupts and delays frames, and the plan's crash target (if any)
    /// dies abruptly mid-batch. This is also how a mid-run node failure
    /// is run: a crash-only plan re-plans around the dead node, restores
    /// the newest sealed checkpoint and replays the sources. The
    /// resilient wire protocol and checkpointed crash recovery keep the
    /// delivered results identical to an undisturbed run; the extra
    /// work shows up in
    /// [`ClusterMetrics::retransmits`], [`ClusterMetrics::corrupt_dropped`],
    /// [`ClusterMetrics::duplicates_suppressed`],
    /// [`ClusterMetrics::checkpoints_taken`] and
    /// [`ClusterMetrics::recovery_ms`]. Fault plans are validated up
    /// front: naming the cloud root or a source host as the crash
    /// target fails fast with [`ClusterError::IneligibleFault`].
    pub fn run_placed_chaos(
        &mut self,
        query: &Query,
        strategy: PlacementStrategy,
        plan: &FaultPlan,
        sink: &mut dyn Sink,
    ) -> Result<ClusterReport> {
        self.run_inner(query, strategy, Some(plan), sink)
    }

    fn run_inner(
        &mut self,
        query: &Query,
        strategy: PlacementStrategy,
        chaos_plan: Option<&FaultPlan>,
        sink: &mut dyn Sink,
    ) -> Result<ClusterReport> {
        let start = Instant::now();
        let cloud_node = self
            .topo
            .cloud()
            .ok_or_else(|| NebulaError::Plan("topology has no cloud node".into()))?;
        if query.ops().is_empty() {
            return Err(NebulaError::Plan(
                "query has no operators; add at least a filter/map/window".into(),
            ));
        }
        let hosted_ref = self
            .sources
            .get(query.source())
            .ok_or_else(|| NebulaError::Plan(format!("unknown source '{}'", query.source())))?;
        let n_pipes = hosted_ref.len();
        let schema = hosted_ref[0].source.schema();
        for h in &hosted_ref[1..] {
            if !schema.same_layout(&h.source.schema()) {
                return Err(NebulaError::Plan(format!(
                    "hosted sources of '{}' disagree on schema: {} vs {}",
                    query.source(),
                    schema,
                    h.source.schema()
                )));
            }
        }
        // Validate the fault plan before any thread spawns (and before
        // the sources are consumed): the crash target must exist and
        // must be neither the cloud root nor a source host.
        if let Some(plan) = chaos_plan {
            let src_nodes: Vec<NodeId> = hosted_ref.iter().map(|h| h.node).collect();
            plan.validate(&self.topo, &src_nodes)?;
        }
        // Pre-flight static analysis: errors reject the plan before any
        // thread spawns (the sources stay registered); warnings ride
        // along into the telemetry report.
        let analysis_warnings = self.analyze(query, strategy)?.into_accepted()?;
        // Validate watermark fields and compute placements before taking
        // the sources, so a plan error leaves them registered.
        let mut ts_cols = Vec::with_capacity(n_pipes);
        let mut placements = Vec::with_capacity(n_pipes);
        for h in hosted_ref {
            ts_cols.push(resolve_ts_col(&h.watermark, &schema)?);
            placements.push(place(query, &self.topo, h.node, strategy)?);
        }

        // Decide the plan split: per-pipeline prefix vs the shared cloud
        // tail, with optional window pre-aggregation.
        let ops = query.ops();
        let split = if self.config.preaggregate && strategy == PlacementStrategy::EdgeFirst {
            split_window(query)
        } else {
            None
        };
        let first_stateful = ops.iter().position(|o| {
            matches!(
                o,
                LogicalOp::Window { .. } | LogicalOp::Cep(_) | LogicalOp::Custom(_)
            )
        });
        let (pipe_op_end, shared) = match &split {
            // Prefix + partial window per pipeline; merge + suffix shared.
            Some(sw) => (sw.window_idx + 1, SharedTail::Merge),
            None => match (n_pipes, first_stateful) {
                // Several pipelines fan into one stateful tail: the
                // stateful operators must run once, at the cloud.
                (2.., Some(s)) => (s, SharedTail::Plain),
                _ => (ops.len(), SharedTail::None),
            },
        };
        // The reported placements must say where stages actually run:
        // everything in the shared tail executes at the cloud, whatever
        // `place()` originally assigned (the split window's own stage
        // keeps its node — that is where the partial runs).
        if !matches!(shared, SharedTail::None) {
            for pl in &mut placements {
                for stage in &mut pl.stages[pipe_op_end + 1..] {
                    *stage = cloud_node;
                }
            }
        }

        // Compile per-pipeline chains and the shared cloud tail (the
        // chaos epoch-0 recovery fallback recompiles the same way).
        let CompiledChains {
            pipe_chains,
            cloud_ops,
            pipe_out_schema,
        } = compile_chains(
            &self.registry,
            query,
            &schema,
            n_pipes,
            &split,
            pipe_op_end,
            shared,
        )?;

        // Instrument every chain. The shared cloud tail's operator ids
        // start past the pipeline chain so edge `op0..` and cloud
        // `opN..` positions never collide; the single-pipe fold below
        // moves already-wrapped tail operators into the cloud chain,
        // keeping their pipeline-relative ids (and their registry
        // handles, which stay with the pipe's `ChainTelemetry`).
        let tel_on = self.config.telemetry.enabled;
        let cloud_base = pipe_chains.first().map_or(0, Vec::len);
        let (mut cloud_ops, mut cloud_tel) = instrument_chain(cloud_ops, tel_on, cloud_base);
        let mut pipe_tels: Vec<ChainTelemetry> = Vec::with_capacity(n_pipes);
        let trace = Arc::new(TraceRing::new(self.config.telemetry.max_events));
        if tel_on {
            trace.push(
                COORDINATOR_ORIGIN,
                TraceKind::QueryDeployed,
                format!("{n_pipes} pipeline(s), {strategy:?} placement"),
            );
        }

        // The plan is valid: consume the sources. Chaos runs wrap each
        // in a replay log so crash recovery can rewind the stream.
        let hosted = self
            .sources
            .remove(query.source())
            .ok_or_else(|| internal("hosted sources vanished mid-plan"))?;

        // Per-pipeline node assignment for each compiled operator, from
        // the placement (stage 0 is the source, stage i+1 operator i).
        let mut pipelines = Vec::with_capacity(n_pipes);
        for (p, (h, chain)) in hosted.into_iter().zip(pipe_chains).enumerate() {
            let mut assign: Vec<NodeId> = placements[p].stages[1..=pipe_op_end].to_vec();
            let (mut flat, tel) = instrument_chain(chain, tel_on, 0);
            pipe_tels.push(tel);
            // A single pipeline with no shared tail may still end at the
            // cloud (CloudOnly): fold the trailing cloud-placed run into
            // the cloud site instead of a one-node relay hop.
            if n_pipes == 1 && matches!(shared, SharedTail::None) {
                let cut = assign
                    .iter()
                    .rposition(|n| *n != cloud_node)
                    .map_or(0, |i| i + 1);
                let tail = flat.split_off(cut);
                assign.truncate(cut);
                cloud_ops.extend(tail);
            }
            let (group0, sites) = regroup(h.node, flat, &assign);
            let source: Box<dyn Source> = if chaos_plan.is_some() {
                Box::new(ReplaySource::new(h.source))
            } else {
                h.source
            };
            pipelines.push(PipelinePlan {
                node: h.node,
                assign,
                pump: PumpState {
                    source,
                    watermark: h.watermark,
                    ts_col: ts_cols[p],
                    schema: schema.clone(),
                    ops: group0,
                    max_ts: EventTime::MIN,
                    batches: 0,
                    idle: 0,
                    stats: QueryMetrics::default(),
                    eos_sent: false,
                    origin: p as u64,
                    progress: ProgressTracker::new(),
                    node_name: self.topo.node(h.node).name.clone(),
                    sent_records: 0,
                    snap_seq: 0,
                },
                sites,
            });
        }
        let output_schema = cloud_ops
            .last()
            .map_or_else(|| pipe_out_schema.clone(), |o| o.output_schema());

        let accounts = Arc::new(TrafficAccounts {
            links: (0..self.topo.links().len())
                .map(|_| LinkAccount::default())
                .collect(),
            uplink: LinkAccount::default(),
        });
        let cloud_state = CloudState {
            ops: cloud_ops,
            buffers: Vec::new(),
            progress: ProgressTracker::with_origins(n_pipes as u64),
            latency: Histogram::new(),
            tel: CloudTel::new(
                &self.config.telemetry,
                all_chains(&pipe_tels, &cloud_tel),
                Arc::clone(&trace),
            ),
        };
        let mut cluster = ClusterMetrics {
            preaggregated: split.is_some(),
            ..ClusterMetrics::default()
        };

        // The cloud's input schema is fixed by the plan; compute it once
        // (after a recovery skips finished pipelines, pipeline 0 may no
        // longer be available to ask).
        let cloud_in_schema = pipeline_out_schema(&pipelines[0]);
        let chaos_run =
            chaos_plan.map(|plan| ChaosRun::new(plan, n_pipes, &self.topo, &self.config));
        // Site counts per pipe, captured while the pipelines still own
        // their sites (a crashed phase loses them with its threads).
        let phase1_sites: Vec<usize> = pipelines.iter().map(|p| p.sites.len()).collect();
        if let Some(c) = &chaos_run {
            c.store.set_expected_sites(phase1_sites.clone());
        }

        let io = PhaseIo {
            topo: &self.topo,
            cfg: &self.config,
            wire: &self.wire,
            accounts: &accounts,
            cloud_node,
        };
        let cloud_state = match run_phase(
            &io,
            &mut pipelines,
            cloud_state,
            &cloud_in_schema,
            chaos_run.as_ref(),
        ) {
            Ok((st, spawned)) => {
                cluster.sites += spawned;
                st
            }
            Err(e) => {
                // An error with the crash switch tripped IS the injected
                // abrupt node death: detect, re-plan, restore, resume.
                let Some((c, switch)) = chaos_run
                    .as_ref()
                    .and_then(|c| c.switch.as_ref().map(|s| (c, s)))
                    .filter(|(_, s)| s.tripped())
                else {
                    return Err(e);
                };
                let recovery_t0 = Instant::now();
                let failed = switch.node;
                if tel_on {
                    trace.push(
                        COORDINATOR_ORIGIN,
                        TraceKind::NodeDown,
                        format!("node '{}' crashed", self.topo.node(failed).name),
                    );
                }
                let parent = self
                    .topo
                    .links()
                    .iter()
                    .find(|l| l.from == failed)
                    .map(|l| l.to)
                    .ok_or_else(|| {
                        NebulaError::Plan(format!(
                            "cannot fail node '{}': it has no parent to migrate to",
                            self.topo.node(failed).name
                        ))
                    })?;
                self.topo.fail_node(failed);
                cluster.crashes += 1;
                cluster.replans += 1;
                for (p, pipe) in pipelines.iter_mut().enumerate() {
                    let mut migrated = 0;
                    for node in &mut pipe.assign {
                        if *node == failed {
                            *node = parent;
                            migrated += 1;
                        }
                    }
                    cluster.migrated_stages += migrated;
                    let (new_pl, _) = crate::topology::replace_after_failure(
                        &self.topo,
                        &placements[p],
                        failed,
                        parent,
                    );
                    placements[p] = new_pl;
                }
                if tel_on {
                    trace.push(
                        COORDINATOR_ORIGIN,
                        TraceKind::Replan,
                        format!(
                            "{} stage(s) migrated to '{}'",
                            cluster.migrated_stages,
                            self.topo.node(parent).name
                        ),
                    );
                }
                let restored = match c.store.take_for_restore() {
                    // Restore the newest sealed epoch: pump counters and
                    // operator state per live pipeline, cloud tail state,
                    // and a source rewind to the checkpointed batch.
                    Some((_epoch, mut snap)) => {
                        let cloud_part = snap
                            .cloud
                            .take()
                            .ok_or_else(|| internal("usable epoch lacks its cloud part"))?;
                        for (p, pipe) in pipelines.iter_mut().enumerate() {
                            if cloud_part.progress.is_done(p as u64) {
                                // This pipeline finished before the cut:
                                // nothing to re-run (its totals live on
                                // in the store's finals).
                                pipe.pump.eos_sent = true;
                                pipe.pump.ops = Vec::new();
                                pipe.sites = Vec::new();
                                continue;
                            }
                            let pp = snap
                                .pumps
                                .remove(&p)
                                .ok_or_else(|| internal("usable epoch lacks a pump part"))?;
                            let mut flat = pp.ops.ok_or_else(|| {
                                internal("usable epoch has an unsnapshotted pump")
                            })?;
                            for s in 0..phase1_sites[p] {
                                let part = snap
                                    .sites
                                    .remove(&(p, s))
                                    .ok_or_else(|| internal("usable epoch lacks a site part"))?;
                                flat.extend(part.ops.ok_or_else(|| {
                                    internal("usable epoch has an unsnapshotted site")
                                })?);
                            }
                            let (group0, sites) = regroup(pipe.node, flat, &pipe.assign);
                            pipe.pump.ops = group0;
                            pipe.sites = sites;
                            pipe.pump.batches = pp.batches;
                            pipe.pump.max_ts = pp.max_ts;
                            pipe.pump.stats = pp.stats;
                            pipe.pump.idle = 0;
                            pipe.pump.eos_sent = false;
                            // Replay re-derives pump-local punctuation
                            // from scratch; a stale tracker would dedup
                            // the re-observed sequences.
                            pipe.pump.progress = ProgressTracker::new();
                            if !pipe.pump.source.rewind(pp.batches as usize) {
                                return Err(internal("chaos source lost its replay log"));
                            }
                        }
                        // Restored operators are snapshots of the
                        // instrumented chain: they keep reporting into
                        // the original registries, so per-operator
                        // counters survive the crash (including the
                        // pre-crash work the replay re-runs — see
                        // docs/observability.md). The cloud sampler and
                        // snapshot retention restart fresh: the sampled
                        // series is best-effort under crashes.
                        CloudState {
                            ops: cloud_part.ops.ok_or_else(|| {
                                internal("usable epoch has an unsnapshotted cloud")
                            })?,
                            buffers: cloud_part.buffers,
                            progress: cloud_part.progress,
                            latency: cloud_part.latency,
                            tel: CloudTel::new(
                                &self.config.telemetry,
                                all_chains(&pipe_tels, &cloud_tel),
                                Arc::clone(&trace),
                            ),
                        }
                    }
                    // Epoch-0 fallback: no usable checkpoint (some
                    // operator cannot snapshot). Recompile everything and
                    // replay the whole stream from the start.
                    None => {
                        c.store.reset();
                        let fresh = compile_chains(
                            &self.registry,
                            query,
                            &schema,
                            n_pipes,
                            &split,
                            pipe_op_end,
                            shared,
                        )?;
                        // Fresh operators need fresh instrumentation:
                        // replacing the registries discards the dead
                        // phase's counters, which the full replay
                        // re-derives from batch zero.
                        let (mut fresh_cloud, fresh_cloud_tel) =
                            instrument_chain(fresh.cloud_ops, tel_on, cloud_base);
                        cloud_tel = fresh_cloud_tel;
                        for (p, (pipe, chain)) in
                            pipelines.iter_mut().zip(fresh.pipe_chains).enumerate()
                        {
                            let (mut flat, tel) = instrument_chain(chain, tel_on, 0);
                            pipe_tels[p] = tel;
                            let tail = flat.split_off(pipe.assign.len().min(flat.len()));
                            fresh_cloud.extend(tail);
                            let (group0, sites) = regroup(pipe.node, flat, &pipe.assign);
                            pipe.pump.ops = group0;
                            pipe.sites = sites;
                            pipe.pump.batches = 0;
                            pipe.pump.max_ts = EventTime::MIN;
                            pipe.pump.stats = QueryMetrics::default();
                            pipe.pump.idle = 0;
                            pipe.pump.eos_sent = false;
                            pipe.pump.progress = ProgressTracker::new();
                            if !pipe.pump.source.rewind(0) {
                                return Err(internal("chaos source lost its replay log"));
                            }
                        }
                        CloudState {
                            ops: fresh_cloud,
                            buffers: Vec::new(),
                            progress: ProgressTracker::with_origins(n_pipes as u64),
                            latency: Histogram::new(),
                            tel: CloudTel::new(
                                &self.config.telemetry,
                                all_chains(&pipe_tels, &cloud_tel),
                                Arc::clone(&trace),
                            ),
                        }
                    }
                };
                cluster.recovery_ms = recovery_t0.elapsed().as_secs_f64() * 1e3;

                // Resume: chaos continues on the surviving links, but the
                // crash switch is disarmed (the node is dead).
                let resumed = c.next_phase();
                resumed
                    .store
                    .set_expected_sites(pipelines.iter().map(|p| p.sites.len()).collect());
                let io = PhaseIo {
                    topo: &self.topo,
                    cfg: &self.config,
                    wire: &self.wire,
                    accounts: &accounts,
                    cloud_node,
                };
                let (st, spawned) = run_phase(
                    &io,
                    &mut pipelines,
                    restored,
                    &cloud_in_schema,
                    Some(&resumed),
                )?;
                cluster.sites += spawned;
                st
            }
        };

        // Deliver order-normalized, like `run_partitioned`.
        let merged = merge_partitions(output_schema, vec![cloud_state.buffers]);
        let mut metrics = QueryMetrics::default();
        match &chaos_run {
            // Chaos runs: a pipeline finished before a crash no longer
            // owns live operators, so totals come from the finals each
            // pipe deposited at its end-of-stream.
            Some(c) => {
                for p in 0..n_pipes {
                    let fin = c
                        .store
                        .final_for(p)
                        .ok_or_else(|| internal("pipeline finished without final totals"))?;
                    metrics.merge(&fin.stats);
                    metrics.late_drops += fin.pump_late + fin.site_late;
                }
            }
            None => {
                for pipe in &pipelines {
                    metrics.merge(&pipe.pump.stats);
                    metrics.late_drops += chain_late_drops(&pipe.pump.ops);
                    for (_, ops) in &pipe.sites {
                        metrics.late_drops += chain_late_drops(ops);
                    }
                }
            }
        }
        metrics.late_drops += chain_late_drops(&cloud_state.ops);
        metrics.records_out = merged.len() as u64;
        metrics.bytes_out = merged.est_bytes() as u64;
        metrics.latency.merge(&cloud_state.latency);
        // How far the fastest pipeline's clock ran ahead of the cloud's
        // combined frontier — the fan-in skew the report promises.
        metrics.frontier_lag_max_us = metrics
            .frontier_lag_max_us
            .max(cloud_state.progress.frontier_lag_us());
        if !merged.is_empty() {
            sink.consume(&merged)?;
        }
        sink.finish()?;
        metrics.wall = start.elapsed();

        cluster.links = accounts
            .links
            .iter()
            .map(|a| LinkMetrics {
                frames: a.frames.load(Ordering::Relaxed),
                records: a.records.load(Ordering::Relaxed),
                bytes: a.bytes.load(Ordering::Relaxed),
                max_queue_depth: a.max_queue.load(Ordering::Relaxed),
                simulated_transfer_ms: a.sim_ns.load(Ordering::Relaxed) as f64 / 1e6,
            })
            .collect();
        cluster.uplink_bytes = accounts.uplink.bytes.load(Ordering::Relaxed);
        cluster.uplink_records = accounts.uplink.records.load(Ordering::Relaxed);
        cluster.uplink_frames = accounts.uplink.frames.load(Ordering::Relaxed);
        if let Some(c) = &chaos_run {
            let o = Ordering::Relaxed;
            cluster.retransmits = c.stats.retransmits.load(o);
            cluster.corrupt_dropped = c.stats.corrupt_dropped.load(o);
            cluster.duplicates_suppressed = c.stats.duplicates_suppressed.load(o);
            cluster.heartbeats = c.stats.heartbeats.load(o);
            cluster.ack_bytes = c.stats.ack_bytes.load(o);
            cluster.faults_injected = c.stats.injected_drops.load(o)
                + c.stats.injected_dups.load(o)
                + c.stats.injected_corruptions.load(o)
                + c.stats.injected_reorders.load(o)
                + cluster.crashes;
            cluster.checkpoints_taken = c.store.checkpoints_taken();
            // A crashed phase's thread count never returned normally;
            // the shared counter has the true total.
            cluster.sites = c.stats.sites_spawned.load(o) as usize;
        }
        // One forced sample so even sub-interval runs record a point,
        // then fold every registry, series, snapshot and event into the
        // run's telemetry report.
        let mut tel = cloud_state.tel;
        let final_gauges = Gauges {
            records_in: tel.records_in,
            records_out: tel.records_out,
            queue_depth: 0,
            frontier: cloud_state.progress.frontier(),
            frontier_lag_us: metrics.frontier_lag_max_us,
            stalls: 0,
        };
        tel.sampler.force_sample(
            &final_gauges,
            &tel.chains,
            Some((&tel.trace, COORDINATOR_ORIGIN)),
        );
        let mode = if chaos_run.is_some() {
            "run_placed_chaos"
        } else {
            "run_placed"
        };
        let telemetry = build_report(
            mode,
            &metrics,
            &tel.chains,
            tel.sampler,
            &tel.trace,
            tel.snaps,
            tel.snaps_dropped,
            analysis_warnings,
        );
        Ok(ClusterReport {
            metrics,
            cluster,
            placements,
            telemetry,
        })
    }
}

/// What runs at the cloud beyond per-pipeline chains.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SharedTail {
    /// Nothing shared: the cloud site only collects results.
    None,
    /// The plan tail from the first stateful operator (multi-pipeline).
    Plain,
    /// A [`WindowMergeOp`] plus the post-window tail (pre-aggregation).
    Merge,
}

/// The operator instances a plan split compiles into.
struct CompiledChains {
    pipe_chains: Vec<Vec<Box<dyn Operator>>>,
    cloud_ops: Vec<Box<dyn Operator>>,
    pipe_out_schema: SchemaRef,
}

/// Compiles per-pipeline chains (one operator instance set each) and
/// the shared cloud tail. A split window compiles as the stateless
/// prefix plus an edge [`WindowPartialOp`] shipping one partial row per
/// slice, merged by a [`WindowMergeOp`] at the cloud. Free-standing so
/// the chaos epoch-0 recovery can recompile without re-borrowing the
/// environment.
fn compile_chains(
    registry: &FunctionRegistry,
    query: &Query,
    schema: &SchemaRef,
    n_pipes: usize,
    split: &Option<SplitWindow>,
    pipe_op_end: usize,
    shared: SharedTail,
) -> Result<CompiledChains> {
    let ops = query.ops();
    let mut pipe_chains = Vec::with_capacity(n_pipes);
    let mut pipe_out_schema = schema.clone();
    let mut pre_window_schema = schema.clone();
    for _ in 0..n_pipes {
        let prefix_end = split.as_ref().map_or(pipe_op_end, |sw| sw.window_idx);
        let plan = compile_ops(
            &ops[..prefix_end],
            query.ts_field(),
            schema.clone(),
            registry,
        )?;
        let mut operators = plan.operators;
        pre_window_schema = plan.output_schema.clone();
        pipe_out_schema = plan.output_schema;
        if let Some(sw) = split {
            let partial = WindowPartialOp::new(
                query.ts_field(),
                &sw.keys,
                &sw.spec,
                sw.aggs.clone(),
                pre_window_schema.clone(),
                registry,
            )?;
            pipe_out_schema = partial.output_schema();
            operators.push(Box::new(partial));
        }
        pipe_chains.push(operators);
    }
    let mut cloud_ops: Vec<Box<dyn Operator>> = Vec::new();
    match shared {
        SharedTail::Merge => {
            let sw = split
                .as_ref()
                .ok_or_else(|| internal("merge tail without a split window"))?;
            let merge = WindowMergeOp::new(
                query.ts_field(),
                &sw.keys,
                &sw.spec,
                sw.aggs.clone(),
                pre_window_schema,
                registry,
            )?;
            let merge_out = merge.output_schema();
            cloud_ops.push(Box::new(merge));
            let suffix = compile_ops(&ops[pipe_op_end..], query.ts_field(), merge_out, registry)?;
            cloud_ops.extend(suffix.operators);
        }
        SharedTail::Plain => {
            let tail = compile_ops(
                &ops[pipe_op_end..],
                query.ts_field(),
                pipe_out_schema.clone(),
                registry,
            )?;
            cloud_ops.extend(tail.operators);
        }
        SharedTail::None => {}
    }
    Ok(CompiledChains {
        pipe_chains,
        cloud_ops,
        pipe_out_schema,
    })
}

/// Coordinator-side context for one chaos run: the plan, the shared
/// fault/recovery counters, the checkpoint store, and the crash switch
/// (armed in phase 1, disarmed after recovery).
struct ChaosRun {
    plan: FaultPlan,
    stats: Arc<ChaosStats>,
    store: Arc<CheckpointStore>,
    switch: Option<Arc<CrashSwitch>>,
    /// Set by any thread that errors, so threads blocked on quiet
    /// channels (the cloud between frames, pumps between polls) notice
    /// the phase is dying and wind down instead of hanging.
    abort: Arc<AtomicBool>,
    phase: u64,
    checkpoint_every: u64,
    doomed_name: String,
}

impl ChaosRun {
    fn new(plan: &FaultPlan, n_pipes: usize, topo: &Topology, cfg: &ClusterConfig) -> ChaosRun {
        let switch = plan.crash.map(|c| Arc::new(CrashSwitch::new(c)));
        let doomed_name = plan
            .crash
            .map(|c| topo.node(c.node).name.clone())
            .unwrap_or_default();
        ChaosRun {
            plan: plan.clone(),
            stats: Arc::new(ChaosStats::default()),
            store: Arc::new(CheckpointStore::new(n_pipes)),
            switch,
            abort: Arc::new(AtomicBool::new(false)),
            phase: 1,
            checkpoint_every: cfg.checkpoint_every.max(1),
            doomed_name,
        }
    }

    /// The post-recovery continuation: same plan, counters and store,
    /// fresh abort flag, crash switch disarmed (the node already died).
    fn next_phase(&self) -> ChaosRun {
        ChaosRun {
            plan: self.plan.clone(),
            stats: Arc::clone(&self.stats),
            store: Arc::clone(&self.store),
            switch: None,
            abort: Arc::new(AtomicBool::new(false)),
            phase: self.phase + 1,
            checkpoint_every: self.checkpoint_every,
            doomed_name: String::new(),
        }
    }

    /// A stable per-(phase, pipeline, hop) link id, so each link's fault
    /// stream is independent and each phase faults afresh.
    fn link_id(&self, pipe: usize, level: usize) -> u64 {
        self.phase * 1_000_000 + (pipe as u64) * 1_000 + level as u64
    }
}

/// Snapshots a whole operator chain; `None` if any operator cannot
/// capture its state (forcing the epoch-0 full-replay fallback).
fn snapshot_chain(ops: &[Box<dyn Operator>]) -> Option<Vec<Box<dyn Operator>>> {
    ops.iter().map(|o| o.snapshot()).collect()
}

/// Splits a pipeline's operators into the pump group (stages on the
/// source node) and contiguous same-node site groups.
#[allow(clippy::type_complexity)]
fn regroup(
    source_node: NodeId,
    flat: Vec<Box<dyn Operator>>,
    assign: &[NodeId],
) -> (
    Vec<Box<dyn Operator>>,
    Vec<(NodeId, Vec<Box<dyn Operator>>)>,
) {
    debug_assert_eq!(flat.len(), assign.len());
    let mut group0 = Vec::new();
    let mut sites: Vec<(NodeId, Vec<Box<dyn Operator>>)> = Vec::new();
    for (op, &node) in flat.into_iter().zip(assign) {
        if sites.is_empty() && node == source_node {
            group0.push(op);
        } else if let Some(last) = sites.last_mut().filter(|(n, _)| *n == node) {
            last.1.push(op);
        } else {
            sites.push((node, vec![op]));
        }
    }
    (group0, sites)
}

/// One inter-site channel hop: sender, receiver (consumed by its site)
/// and the shared in-flight frame counter.
type Hop = (Sender<Vec<u8>>, Option<Receiver<Vec<u8>>>, Arc<AtomicU64>);

/// Per-link traffic counters shared across site threads.
#[derive(Default)]
struct LinkAccount {
    frames: AtomicU64,
    records: AtomicU64,
    bytes: AtomicU64,
    max_queue: AtomicU64,
    sim_ns: AtomicU64,
}

/// All shared traffic counters for one run. Uplink totals are
/// classified at *send time* (was the traversed link pointing into a
/// cloud node when the frame crossed it?) — after a mid-run failure
/// re-attaches an edge's children to the cloud, pre-failure onboard-bus
/// traffic must not be re-labelled as uplink traffic.
#[derive(Default)]
struct TrafficAccounts {
    links: Vec<LinkAccount>,
    uplink: LinkAccount,
}

/// The sending half of an inter-site channel, with link accounting.
enum TxTarget {
    Direct(Sender<Vec<u8>>),
    Inbox(Sender<(usize, Vec<u8>)>, usize),
}

/// One traversed link in a sender's path, with the parameters frozen
/// at channel-construction time (a re-planning phase rebuilds senders,
/// picking up the post-failure topology).
struct PathLink {
    idx: usize,
    bandwidth_mbps: f64,
    latency_ms: f64,
    /// The link pointed into a cloud node when this sender was built.
    to_cloud: bool,
}

struct WireTx {
    target: TxTarget,
    path: Vec<PathLink>,
    accounts: Arc<TrafficAccounts>,
    depth: Arc<AtomicU64>,
}

impl WireTx {
    fn send(&self, bytes: Vec<u8>, records: u64) -> Result<()> {
        let n = bytes.len() as u64;
        for link in &self.path {
            let a = &self.accounts.links[link.idx];
            a.frames.fetch_add(1, Ordering::Relaxed);
            a.records.fetch_add(records, Ordering::Relaxed);
            a.bytes.fetch_add(n, Ordering::Relaxed);
            let ms =
                link.latency_ms + (n as f64 * 8.0) / (link.bandwidth_mbps.max(1e-9) * 1e6) * 1e3;
            a.sim_ns.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
            if link.to_cloud {
                let u = &self.accounts.uplink;
                u.frames.fetch_add(1, Ordering::Relaxed);
                u.records.fetch_add(records, Ordering::Relaxed);
                u.bytes.fetch_add(n, Ordering::Relaxed);
            }
        }
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        for link in &self.path {
            self.accounts.links[link.idx]
                .max_queue
                .fetch_max(depth, Ordering::Relaxed);
        }
        let hung = || NebulaError::Eval("cluster: downstream site hung up".into());
        match &self.target {
            TxTarget::Direct(tx) => tx.send(bytes).map_err(|_| hung()),
            TxTarget::Inbox(tx, p) => tx.send((*p, bytes)).map_err(|_| hung()),
        }
    }
}

/// A site's downstream sender: the accounting [`WireTx`] plus, in chaos
/// mode, the resilient-delivery layer wrapped around it (envelopes,
/// acks, retransmission, the chaos injector itself).
struct TxLink {
    wire: WireTx,
    rel: Option<Box<ReliableTx>>,
}

impl TxLink {
    fn plain(wire: WireTx) -> TxLink {
        TxLink { wire, rel: None }
    }

    fn reliable(wire: WireTx, rel: ReliableTx) -> TxLink {
        TxLink {
            wire,
            rel: Some(Box::new(rel)),
        }
    }

    fn send(&mut self, bytes: Vec<u8>, records: u64) -> Result<()> {
        let TxLink { wire, rel } = self;
        match rel {
            Some(r) => r.send(&bytes, records, &mut |b, n| wire.send(b, n)),
            None => wire.send(bytes, records),
        }
    }

    /// Frames currently queued on this link's downstream channel.
    fn queue_depth(&self) -> u64 {
        self.wire.depth.load(Ordering::Relaxed)
    }

    /// Chaos mode: an unsequenced liveness beacon. No-op on plain links
    /// (a plain channel cannot lose frames, so silence is unambiguous).
    fn heartbeat(&mut self) -> Result<()> {
        let TxLink { wire, rel } = self;
        if let Some(r) = rel {
            r.heartbeat(&mut |b, n| wire.send(b, n))?;
        }
        Ok(())
    }

    /// Chaos mode: block until every sent envelope is acknowledged (the
    /// link-level end-of-stream guarantee). No-op on plain links.
    fn flush(&mut self) -> Result<()> {
        let TxLink { wire, rel } = self;
        if let Some(r) = rel {
            r.flush(&mut |b, n| wire.send(b, n))?;
        }
        Ok(())
    }
}

/// A site's upstream receiver: a plain channel, or the resilient layer
/// reassembling an exactly-once in-order stream from chaos-injected
/// arrivals.
enum RxLink {
    Plain(Receiver<Vec<u8>>),
    Reliable {
        rx: Receiver<Vec<u8>>,
        rel: ReliableRx,
        abort: Arc<AtomicBool>,
    },
}

impl RxLink {
    /// The next in-order payload. On a reliable link this loops over raw
    /// arrivals (absorbing corruption, duplicates and reordering) and
    /// polls the abort flag while idle, so a dying phase never hangs a
    /// site on a quiet channel.
    fn recv(&mut self, depth: &AtomicU64) -> Result<Vec<u8>> {
        let hung = || NebulaError::Eval("cluster: upstream site hung up".into());
        match self {
            RxLink::Plain(rx) => {
                let bytes = rx.recv().map_err(|_| hung())?;
                depth.fetch_sub(1, Ordering::Relaxed);
                Ok(bytes)
            }
            RxLink::Reliable { rx, rel, abort } => loop {
                if let Some(payload) = rel.next_buffered() {
                    return Ok(payload);
                }
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Ok(raw) => {
                        depth.fetch_sub(1, Ordering::Relaxed);
                        if let RxEvent::Payload(payload) = rel.on_bytes(&raw) {
                            return Ok(payload);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if abort.load(Ordering::Relaxed) {
                            return Err(ClusterError::Aborted.into());
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(if abort.load(Ordering::Relaxed) {
                            ClusterError::Aborted.into()
                        } else {
                            hung()
                        });
                    }
                }
            },
        }
    }

    /// Chaos mode: after end-of-stream, keep absorbing (and re-acking)
    /// stray retransmissions and duplicates until the upstream sender
    /// hangs up, so its flush never emits into a dropped channel. The
    /// reliable layer already delivered every genuine payload in order,
    /// so anything arriving now classifies as bookkeeping. No-op on
    /// plain links (they cannot duplicate).
    fn linger(&mut self, depth: &AtomicU64) {
        if let RxLink::Reliable { rx, rel, abort } = self {
            loop {
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Ok(raw) => {
                        depth.fetch_sub(1, Ordering::Relaxed);
                        let _ = rel.on_bytes(&raw);
                        while rel.next_buffered().is_some() {}
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if abort.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        }
    }
}

/// Pushes one message through a sub-chain, returning the terminal
/// messages in order (what crosses to the next site).
fn drive(ops: &mut [Box<dyn Operator>], first: StreamMessage) -> Result<Vec<StreamMessage>> {
    let mut cur = vec![first];
    let mut next: Vec<StreamMessage> = Vec::new();
    for op in ops.iter_mut() {
        for msg in cur.drain(..) {
            match msg {
                StreamMessage::Data(b) => op.process(b, &mut next)?,
                StreamMessage::Columnar(b) => op.process_columnar(b, &mut next)?,
                StreamMessage::Watermark(w) => op.on_watermark(w, &mut next)?,
                StreamMessage::Eos => op.on_eos(&mut next)?,
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(cur)
}

/// Encodes and forwards terminal messages downstream.
fn forward(
    msgs: Vec<StreamMessage>,
    out_schema: &SchemaRef,
    wire: &WireRegistry,
    tx: &mut TxLink,
) -> Result<()> {
    for msg in msgs {
        match msg {
            StreamMessage::Data(b) => {
                let records = b.len() as u64;
                if records > 0 {
                    let frame = Frame::Data(b.into_records());
                    tx.send(encode_frame(&frame, out_schema, wire)?, records)?;
                }
            }
            // Columnar batches materialize to rows at the wire boundary:
            // the frame format (and its byte accounting) is unchanged, so
            // analytic network-cost estimates keep reconciling.
            StreamMessage::Columnar(b) => {
                let records = b.len() as u64;
                if records > 0 {
                    let frame = Frame::Data(b.to_record_buffer().into_records());
                    tx.send(encode_frame(&frame, out_schema, wire)?, records)?;
                }
            }
            StreamMessage::Watermark(w) => {
                tx.send(encode_frame(&Frame::Watermark(w), out_schema, wire)?, 0)?;
            }
            StreamMessage::Eos => {
                tx.send(encode_frame(&Frame::Eos, out_schema, wire)?, 0)?;
            }
        }
    }
    Ok(())
}

/// Chaos-mode context for one site thread: where its checkpoint parts
/// go, and — on the doomed node — the crash switch that kills it.
struct SiteChaos {
    store: Arc<CheckpointStore>,
    pipe: usize,
    site_idx: usize,
    doom: Option<Arc<CrashSwitch>>,
    doom_name: String,
}

/// Telemetry context for one site thread: ship a [`NodeSnapshot`]
/// downstream at most once per `every`.
struct SiteTel {
    node: String,
    origin: u64,
    every: Duration,
}

/// One edge site: decode, drive the sub-chain, re-encode downstream.
/// Returns the operator state on end-of-stream.
///
/// Thread entry point: every argument is moved out of the spawning
/// closure and owned until the site shuts down.
#[allow(clippy::too_many_arguments, clippy::needless_pass_by_value)]
fn run_site(
    mut ops: Vec<Box<dyn Operator>>,
    in_schema: SchemaRef,
    mut rx: RxLink,
    depth: Arc<AtomicU64>,
    mut tx: TxLink,
    wire: WireRegistry,
    chaos: Option<SiteChaos>,
    tel: Option<SiteTel>,
) -> Result<Vec<Box<dyn Operator>>> {
    let out_schema = ops
        .last()
        .map_or_else(|| in_schema.clone(), |o| o.output_schema());
    let started = Instant::now();
    let mut last_snap = Instant::now();
    let (mut records_in, mut records_out, mut snap_seq) = (0u64, 0u64, 0u64);
    loop {
        let bytes = rx.recv(&depth)?;
        if let Some(c) = &chaos {
            if let Some(switch) = &c.doom {
                if switch.observe() {
                    // Abrupt death: all operator state and every channel
                    // drop mid-batch, with no Eos.
                    return Err(ClusterError::NodeDown {
                        node: c.doom_name.clone(),
                    }
                    .into());
                }
            }
        }
        match decode_frame(&bytes, &in_schema, &wire)? {
            Frame::Data(recs) => {
                records_in += recs.len() as u64;
                let buf = RecordBuffer::new(in_schema.clone(), recs);
                let msgs = drive(&mut ops, StreamMessage::Data(buf))?;
                records_out += records_of(&msgs);
                forward(msgs, &out_schema, &wire, &mut tx)?;
                if let Some(t) = &tel {
                    if last_snap.elapsed() >= t.every {
                        // Sites have no progress tracker of their own:
                        // the frontier fields stay empty and the cloud
                        // reads lag off the pump's snapshots instead.
                        snap_seq += 1;
                        let snap = NodeSnapshot {
                            origin: t.origin,
                            node: t.node.clone(),
                            seq: snap_seq,
                            at_us: started.elapsed().as_micros() as u64,
                            records_in,
                            records_out,
                            queue_depth: depth.load(Ordering::Relaxed),
                            frontier: None,
                            frontier_lag_us: 0,
                        };
                        tx.send(
                            encode_frame(&Frame::Telemetry(snap), &out_schema, &wire)?,
                            0,
                        )?;
                        last_snap = Instant::now();
                    }
                }
            }
            Frame::Watermark(w) => {
                let msgs = drive(&mut ops, StreamMessage::Watermark(w))?;
                records_out += records_of(&msgs);
                forward(msgs, &out_schema, &wire, &mut tx)?;
            }
            Frame::Barrier(epoch) => {
                let Some(c) = &chaos else {
                    return Err(internal("checkpoint barrier outside a chaos run"));
                };
                // Snapshot at the cut and pass the barrier on; it is a
                // pipeline-level marker, never driven through operators.
                c.store.put_site(
                    epoch,
                    c.pipe,
                    c.site_idx,
                    SitePart {
                        ops: snapshot_chain(&ops),
                    },
                );
                tx.send(encode_frame(&Frame::Barrier(epoch), &out_schema, &wire)?, 0)?;
            }
            Frame::Telemetry(_) => {
                // Upstream snapshots relay unchanged toward the cloud
                // fan-in (the frame needs no re-encode: its layout is
                // schema-independent).
                tx.send(bytes, 0)?;
            }
            Frame::Eos => {
                // No snapshot ships after end-of-stream, so the local
                // counters need no final update.
                let msgs = drive(&mut ops, StreamMessage::Eos)?;
                forward(msgs, &out_schema, &wire, &mut tx)?;
                tx.flush()?;
                if let Some(c) = &chaos {
                    c.store.add_site_final_late(c.pipe, chain_late_drops(&ops));
                }
                rx.linger(&depth);
                return Ok(ops);
            }
        }
    }
}

/// Cloud-site state preserved across re-planning phases.
struct CloudState {
    ops: Vec<Box<dyn Operator>>,
    buffers: Vec<RecordBuffer>,
    /// Per-pipeline progress (origin = pipeline index): each input's
    /// frontier, which inputs have ended, and the min-combined global
    /// frontier fed into the cloud chain. Centralizing the min/monotone
    /// rules in the tracker means an input that finishes mid-epoch can
    /// only *raise* the combined clock, never regress it.
    progress: ProgressTracker,
    latency: Histogram,
    /// Cloud-side telemetry riding along the fan-in: the periodic
    /// sampler, retained per-node snapshots, and the run's trace ring.
    tel: CloudTel,
}

/// Cloud-side telemetry state. Rebuilt fresh on crash recovery — the
/// sampled series is best-effort under crashes, while per-operator
/// counters survive through the shared [`ChainTelemetry`] handles and
/// trace events through the shared ring.
struct CloudTel {
    enabled: bool,
    sampler: TelemetrySampler,
    /// Every chain registry of the run (pipelines, then the shared
    /// cloud tail) — cloned handles, safe to read from the cloud thread
    /// while the chains execute elsewhere.
    chains: Vec<ChainTelemetry>,
    trace: Arc<TraceRing>,
    snaps: Vec<NodeSnapshot>,
    snaps_dropped: u64,
    max_snaps: usize,
    /// Records the cloud fan-in has consumed (all pipelines).
    records_in: u64,
    /// Records the cloud chain has emitted toward the sink.
    records_out: u64,
}

impl CloudTel {
    fn new(cfg: &TelemetryConfig, chains: Vec<ChainTelemetry>, trace: Arc<TraceRing>) -> CloudTel {
        CloudTel {
            enabled: cfg.enabled,
            sampler: TelemetrySampler::new(cfg),
            chains,
            trace,
            snaps: Vec::new(),
            snaps_dropped: 0,
            max_snaps: cfg.max_node_snapshots.max(1),
            records_in: 0,
            records_out: 0,
        }
    }

    /// Retains a fanned-in node snapshot under the configured bound
    /// (oldest out first).
    fn keep(&mut self, snap: NodeSnapshot) {
        if !self.enabled {
            return;
        }
        if self.snaps.len() >= self.max_snaps {
            self.snaps.remove(0);
            self.snaps_dropped += 1;
        }
        self.snaps.push(snap);
    }

    /// Takes an interval-gated sample of the cloud fan-in.
    fn maybe_sample(&mut self, progress: &ProgressTracker, queue_depth: u64) {
        let gauges = Gauges {
            records_in: self.records_in,
            records_out: self.records_out,
            queue_depth,
            frontier: progress.frontier(),
            frontier_lag_us: progress.frontier_lag_us(),
            stalls: 0,
        };
        self.sampler.maybe_sample(
            &gauges,
            &self.chains,
            Some((&self.trace, COORDINATOR_ORIGIN)),
        );
    }

    /// Notes a sealed checkpoint epoch in the trace ring.
    fn checkpoint_sealed(&self, epoch: u64) {
        if self.enabled {
            self.trace.push(
                COORDINATOR_ORIGIN,
                TraceKind::CheckpointSealed,
                format!("epoch {epoch}"),
            );
        }
    }
}

/// Clones every chain registry of the run (pipelines, then the shared
/// cloud tail) for the cloud-side sampler and the final report.
fn all_chains(pipe_tels: &[ChainTelemetry], cloud_tel: &ChainTelemetry) -> Vec<ChainTelemetry> {
    let mut chains = pipe_tels.to_vec();
    chains.push(cloud_tel.clone());
    chains
}

/// Sums the records carried by a batch of terminal messages.
fn records_of(msgs: &[StreamMessage]) -> u64 {
    msgs.iter().map(|m| m.record_count() as u64).sum()
}

/// Collects data messages into `buffers`, returning the record count.
fn collect_data(buffers: &mut Vec<RecordBuffer>, msgs: Vec<StreamMessage>) -> u64 {
    let mut collected = 0;
    for msg in msgs {
        if let StreamMessage::Data(b) = msg {
            if !b.is_empty() {
                collected += b.len() as u64;
                buffers.push(b);
            }
        }
    }
    collected
}

impl CloudState {
    /// The one cloud frame handler, shared by the plain and the chaos
    /// fan-in: data drives the tail chain, watermarks and end-of-stream
    /// advance the per-pipeline frontier, node snapshots are retained.
    /// `p` is the sending pipeline. Returns true once every pipeline has
    /// ended and the tail chain has flushed. Barriers belong to the
    /// chaos loop's alignment and never reach this handler.
    fn apply(&mut self, p: usize, frame: Frame, in_schema: &SchemaRef) -> Result<bool> {
        match frame {
            Frame::Data(recs) => {
                self.tel.records_in += recs.len() as u64;
                let buf = RecordBuffer::new(in_schema.clone(), recs);
                let t0 = Instant::now();
                let msgs = drive(&mut self.ops, StreamMessage::Data(buf))?;
                self.latency.record(t0.elapsed().as_secs_f64() * 1e6);
                self.tel.records_out += collect_data(&mut self.buffers, msgs);
            }
            Frame::Watermark(w) => {
                // The tracker owns the fan-in rules: min across live
                // origins, monotone, silent until every live origin has
                // reported.
                let advanced = self.progress.advance_origin(p as u64, w);
                self.emit_frontier(advanced)?;
            }
            Frame::Eos => {
                // Removing a finished input can only raise the minimum.
                let advanced = self.progress.finish(p as u64);
                if self.progress.all_done() {
                    let msgs = drive(&mut self.ops, StreamMessage::Eos)?;
                    self.tel.records_out += collect_data(&mut self.buffers, msgs);
                    return Ok(true);
                }
                self.emit_frontier(advanced)?;
            }
            Frame::Telemetry(snap) => self.tel.keep(snap),
            Frame::Barrier(_) => return Err(internal("checkpoint barrier outside a chaos run")),
        }
        Ok(false)
    }

    /// Drives the tail chain with the new global frontier, if the
    /// tracker reported a strict advance.
    fn emit_frontier(&mut self, advanced: Option<EventTime>) -> Result<()> {
        if let Some(c) = advanced {
            let msgs = drive(&mut self.ops, StreamMessage::Watermark(c))?;
            self.tel.records_out += collect_data(&mut self.buffers, msgs);
        }
        Ok(())
    }
}

/// The cloud site: fans in every pipeline, min-combines watermarks,
/// drives the shared tail, and collects results until every pipeline
/// has ended.
///
/// Thread entry point: arguments are moved out of the spawning closure
/// and owned until the phase ends.
#[allow(clippy::needless_pass_by_value)]
fn run_cloud(
    mut st: CloudState,
    in_schema: SchemaRef,
    rx: Receiver<(usize, Vec<u8>)>,
    depths: Vec<Arc<AtomicU64>>,
    wire: WireRegistry,
) -> Result<CloudState> {
    loop {
        let queue_depth: u64 = depths.iter().map(|d| d.load(Ordering::Relaxed)).sum();
        st.tel.maybe_sample(&st.progress, queue_depth);
        let (p, bytes) = rx
            .recv()
            .map_err(|_| NebulaError::Eval("cluster: all pipelines hung up".into()))?;
        depths[p].fetch_sub(1, Ordering::Relaxed);
        if st.apply(p, decode_frame(&bytes, &in_schema, &wire)?, &in_schema)? {
            return Ok(st);
        }
    }
}

/// The chaos cloud's working state: the [`CloudState`] plus
/// barrier-alignment bookkeeping (Chandy–Lamport style: once a barrier
/// arrives from one pipeline, that pipeline's further frames are held
/// back until every live pipeline has presented the same barrier; the
/// epoch seals at the aligned cut).
struct CloudChaosState {
    st: CloudState,
    in_schema: SchemaRef,
    wire: WireRegistry,
    /// Frames held back per pipeline during alignment.
    held: Vec<VecDeque<Vec<u8>>>,
    /// The epoch currently aligning, if any.
    aligning: Option<u64>,
    /// Pipelines that have presented the aligning barrier.
    seen: Vec<bool>,
    store: Arc<CheckpointStore>,
    finished: bool,
}

impl CloudChaosState {
    /// Routes one in-order payload: held back if its pipeline is past
    /// the aligning barrier, applied otherwise.
    fn ingest(&mut self, p: usize, payload: Vec<u8>) -> Result<()> {
        if self.aligning.is_some() && self.seen[p] {
            self.held[p].push_back(payload);
            Ok(())
        } else {
            self.apply(p, &payload)
        }
    }

    /// Marks a barrier for alignment; hands every other frame to the
    /// shared [`CloudState::apply`].
    fn apply(&mut self, p: usize, bytes: &[u8]) -> Result<()> {
        match decode_frame(bytes, &self.in_schema, &self.wire)? {
            Frame::Barrier(epoch) => {
                if self.aligning.is_none() {
                    self.aligning = Some(epoch);
                }
                self.seen[p] = true;
            }
            frame => {
                if self.st.apply(p, frame, &self.in_schema)? {
                    self.finished = true;
                }
            }
        }
        Ok(())
    }

    /// Seals the aligning epoch once every live pipeline has presented
    /// its barrier (done pipelines are exempt — their streams ended).
    fn try_align(&mut self) -> Result<bool> {
        let Some(epoch) = self.aligning else {
            return Ok(false);
        };
        let aligned =
            (0..self.seen.len()).all(|p| self.seen[p] || self.st.progress.is_done(p as u64));
        if !aligned {
            return Ok(false);
        }
        self.store.put_cloud(
            epoch,
            CloudPart {
                ops: snapshot_chain(&self.st.ops),
                buffers: self.st.buffers.clone(),
                progress: self.st.progress.clone(),
                latency: self.st.latency.clone(),
            },
        );
        self.st.tel.checkpoint_sealed(epoch);
        self.aligning = None;
        self.seen.iter_mut().for_each(|s| *s = false);
        Ok(true)
    }

    /// Processes everything currently processable: seals an aligned
    /// epoch, then replays held-back frames until each pipeline is
    /// either drained or blocked by the next alignment.
    fn drain(&mut self) -> Result<()> {
        loop {
            if self.finished {
                return Ok(());
            }
            let mut progressed = self.try_align()?;
            for p in 0..self.held.len() {
                while !(self.aligning.is_some() && self.seen[p]) {
                    let Some(payload) = self.held[p].pop_front() else {
                        break;
                    };
                    self.apply(p, &payload)?;
                    progressed = true;
                    if self.finished {
                        return Ok(());
                    }
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }
}

/// The chaos-mode cloud site: resilient per-pipeline links, barrier
/// alignment with held-back frames, epoch sealing, and abort-aware
/// timeouts (a silently dead upstream cannot hang the fan-in).
#[allow(clippy::too_many_arguments, clippy::needless_pass_by_value)]
fn run_cloud_chaos(
    st: CloudState,
    in_schema: SchemaRef,
    rx: Receiver<(usize, Vec<u8>)>,
    depths: Vec<Arc<AtomicU64>>,
    wire: WireRegistry,
    mut rel: Vec<ReliableRx>,
    store: Arc<CheckpointStore>,
    abort: Arc<AtomicBool>,
) -> Result<CloudState> {
    let n = st.progress.len();
    let mut cc = CloudChaosState {
        st,
        in_schema,
        wire,
        held: (0..n).map(|_| VecDeque::new()).collect(),
        aligning: None,
        seen: vec![false; n],
        store,
        finished: false,
    };
    loop {
        cc.drain()?;
        let queue_depth: u64 = depths.iter().map(|d| d.load(Ordering::Relaxed)).sum();
        cc.st.tel.maybe_sample(&cc.st.progress, queue_depth);
        if cc.finished {
            // Linger: keep absorbing (and re-acking) stray
            // retransmissions and duplicates until every uplink sender
            // hangs up, so no sender's flush emits into a dropped inbox.
            loop {
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Ok((p, raw)) => {
                        depths[p].fetch_sub(1, Ordering::Relaxed);
                        let _ = rel[p].on_bytes(&raw);
                        while rel[p].next_buffered().is_some() {}
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            return Ok(cc.st);
        }
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok((p, raw)) => {
                depths[p].fetch_sub(1, Ordering::Relaxed);
                if let RxEvent::Payload(payload) = rel[p].on_bytes(&raw) {
                    cc.ingest(p, payload)?;
                }
                while let Some(payload) = rel[p].next_buffered() {
                    cc.ingest(p, payload)?;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if abort.load(Ordering::Relaxed) {
                    return Err(ClusterError::Aborted.into());
                }
                // Silent-death backstop: in-process links normally fail
                // by disconnecting, but a peer wedged with its channel
                // open (e.g. a link flapped down indefinitely) only
                // shows up as missing heartbeats.
                for (p, r) in rel.iter().enumerate() {
                    if !cc.st.progress.is_done(p as u64) {
                        r.check_liveness(&format!("pipe{p}/uplink"), Duration::from_secs(10))?;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(if abort.load(Ordering::Relaxed) {
                    ClusterError::Aborted.into()
                } else {
                    NebulaError::Eval("cluster: all pipelines hung up".into())
                });
            }
        }
    }
}

/// One pipeline's source-side state, preserved across phases.
struct PumpState {
    source: Box<dyn Source>,
    watermark: WatermarkStrategy,
    ts_col: Option<usize>,
    schema: SchemaRef,
    /// Stages placed on the source node, driven on the pump thread.
    ops: Vec<Box<dyn Operator>>,
    max_ts: EventTime,
    batches: u64,
    idle: u64,
    stats: QueryMetrics,
    /// This pipeline's stream already ended (its Eos reached the
    /// cloud); later phases spawn nothing for it.
    eos_sent: bool,
    /// This pipeline's index — the punctuation origin stamped on every
    /// buffer it emits.
    origin: u64,
    /// Pump-local progress over the source's per-buffer punctuation;
    /// its frontier is what crosses the wire as `Frame::Watermark`.
    progress: ProgressTracker,
    /// The hosting topology node's name, stamped on telemetry
    /// snapshots this pump ships.
    node_name: String,
    /// Records forwarded downstream (post source-node stages).
    sent_records: u64,
    /// Monotone sequence for shipped [`NodeSnapshot`]s.
    snap_seq: u64,
}

struct PipelinePlan {
    node: NodeId,
    /// Node per compiled pipeline operator (migration bookkeeping).
    assign: Vec<NodeId>,
    pump: PumpState,
    sites: Vec<(NodeId, Vec<Box<dyn Operator>>)>,
}

/// Chaos-mode context for one pump thread.
struct PumpChaos {
    store: Arc<CheckpointStore>,
    pipe: usize,
    /// Emit a checkpoint barrier every this many data batches.
    every: u64,
    abort: Arc<AtomicBool>,
    /// Set when the doomed node is a pass-through hop on this pump's
    /// route (it hosts no site thread anywhere): the pump observes the
    /// crash switch on its frames and dies when it trips, severing the
    /// path exactly as the node's crash would.
    doom: Option<Arc<CrashSwitch>>,
    doom_name: String,
}

impl PumpChaos {
    /// Kills the pump if the pass-through crash switch trips.
    fn check_doom(&self) -> Result<()> {
        if let Some(doom) = &self.doom {
            if doom.observe() {
                return Err(ClusterError::NodeDown {
                    node: self.doom_name.clone(),
                }
                .into());
            }
        }
        Ok(())
    }
}

/// Polls the source, drives the source-node stages, generates
/// watermarks, and pushes frames downstream — mirroring
/// `StreamEnvironment::run`'s ingest loop, then flushes end-of-stream.
fn pump(
    st: &mut PumpState,
    tx: &mut TxLink,
    wire: &WireRegistry,
    cfg: &ClusterConfig,
    chaos: Option<&PumpChaos>,
) -> Result<()> {
    let out_schema = st
        .ops
        .last()
        .map_or_else(|| st.schema.clone(), |o| o.output_schema());
    let watermark_every = cfg.watermark_every.max(1);
    // Columnar only pays off when a local stage consumes the buffer;
    // with no source-node stages the frame converts straight back to
    // rows at the wire, so skip the round-trip.
    let columnar = crate::runtime::chain_wants_columnar(cfg.columnar, &st.ops);
    let started = Instant::now();
    let mut last_snap = Instant::now();
    loop {
        if let Some(c) = chaos {
            if c.abort.load(Ordering::Relaxed) {
                return Err(ClusterError::Aborted.into());
            }
        }
        match st.source.poll(cfg.buffer_size)? {
            SourceBatch::Data(recs) => {
                st.idle = 0;
                st.batches += 1;
                st.stats.batches += 1;
                st.stats.records_in += recs.len() as u64;
                let (msg, punctuation) = crate::runtime::make_data_message(
                    &st.schema,
                    recs,
                    columnar,
                    st.ts_col,
                    st.origin,
                    st.batches,
                    &st.watermark,
                    watermark_every,
                    &mut st.max_ts,
                );
                st.stats.bytes_in += msg.data_bytes() as u64;
                let msgs = drive(&mut st.ops, msg)?;
                st.sent_records += records_of(&msgs);
                forward(msgs, &out_schema, wire, tx)?;
                // The per-buffer punctuation stamp is the source of
                // truth; the wire watermark is the pump tracker's
                // frontier over it. Every sequence feeds the tracker —
                // unpunctuated buffers close gaps — but only punctuated
                // ones emit.
                st.progress.observe(st.origin, st.batches, punctuation);
                if punctuation.is_some() {
                    if let Some(w) = st.progress.frontier() {
                        st.stats.watermarks += 1;
                        let msgs = drive(&mut st.ops, StreamMessage::Watermark(w))?;
                        st.sent_records += records_of(&msgs);
                        forward(msgs, &out_schema, wire, tx)?;
                    }
                }
                if cfg.telemetry.enabled && last_snap.elapsed() >= cfg.telemetry.sample_every {
                    // Ship a node snapshot downstream; it rides the
                    // same route (and, in chaos mode, the same
                    // resilient link) as the data it describes.
                    st.snap_seq += 1;
                    let snap = NodeSnapshot {
                        origin: st.origin,
                        node: st.node_name.clone(),
                        seq: st.snap_seq,
                        at_us: started.elapsed().as_micros() as u64,
                        records_in: st.stats.records_in,
                        records_out: st.sent_records,
                        queue_depth: tx.queue_depth(),
                        frontier: st.progress.frontier(),
                        frontier_lag_us: st.progress.frontier_lag_us(),
                    };
                    tx.send(encode_frame(&Frame::Telemetry(snap), &out_schema, wire)?, 0)?;
                    last_snap = Instant::now();
                }
                if let Some(c) = chaos {
                    c.check_doom()?;
                    if st.batches.is_multiple_of(c.every) {
                        // Snapshot the pump's cut and send the barrier
                        // after it: everything up to `batches` is ahead
                        // of the marker on every downstream link.
                        let epoch = st.batches / c.every;
                        c.store.put_pump(
                            epoch,
                            c.pipe,
                            PumpPart {
                                ops: snapshot_chain(&st.ops),
                                batches: st.batches,
                                max_ts: st.max_ts,
                                stats: st.stats.clone(),
                            },
                        );
                        tx.send(encode_frame(&Frame::Barrier(epoch), &out_schema, wire)?, 0)?;
                    }
                }
            }
            SourceBatch::Idle => {
                st.idle += 1;
                if st.idle > cfg.idle_limit {
                    break;
                }
                if chaos.is_some() && st.idle.is_multiple_of(1024) {
                    // Keep a quiet link observably alive.
                    tx.heartbeat()?;
                }
                std::thread::yield_now();
            }
            SourceBatch::Exhausted => break,
        }
    }
    let msgs = drive(&mut st.ops, StreamMessage::Eos)?;
    st.sent_records += records_of(&msgs);
    forward(msgs, &out_schema, wire, tx)?;
    tx.flush()?;
    if let Some(c) = chaos {
        c.store
            .record_pump_final(c.pipe, st.stats.clone(), chain_late_drops(&st.ops));
    }
    st.eos_sent = true;
    Ok(())
}

/// Whether `node` lies on the frame route `src → sites… → cloud` of a
/// pipeline — as any hop endpoint, including pass-through relays that
/// host no operators.
fn route_crosses(io: &PhaseIo<'_>, src: NodeId, sites: &[NodeId], node: NodeId) -> Result<bool> {
    let mut stops = Vec::with_capacity(sites.len() + 2);
    stops.push(src);
    stops.extend_from_slice(sites);
    stops.push(io.cloud_node);
    for leg in stops.windows(2) {
        let crosses = io.topo.path_up(leg[0], leg[1])?.into_iter().any(|idx| {
            let l = &io.topo.links()[idx];
            l.from == node || l.to == node
        });
        if crosses {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Shared phase context.
struct PhaseIo<'a> {
    topo: &'a Topology,
    cfg: &'a ClusterConfig,
    wire: &'a WireRegistry,
    accounts: &'a Arc<TrafficAccounts>,
    cloud_node: NodeId,
}

impl PhaseIo<'_> {
    /// Builds an accounting sender for a hop `from → to`.
    fn wire_tx(
        &self,
        from: NodeId,
        to: NodeId,
        target: TxTarget,
        depth: Arc<AtomicU64>,
    ) -> Result<WireTx> {
        let path = self
            .topo
            .path_up(from, to)?
            .into_iter()
            .map(|idx| {
                let l = &self.topo.links()[idx];
                PathLink {
                    idx,
                    bandwidth_mbps: l.bandwidth_mbps,
                    latency_ms: l.latency_ms,
                    to_cloud: self.topo.node(l.to).kind == NodeKind::Cloud,
                }
            })
            .collect();
        Ok(WireTx {
            target,
            path,
            accounts: Arc::clone(self.accounts),
            depth,
        })
    }
}

/// The schema of records a pipeline delivers to the cloud site.
fn pipeline_out_schema(p: &PipelinePlan) -> SchemaRef {
    let last_ops = p.sites.last().map(|(_, ops)| ops).unwrap_or(&p.pump.ops);
    last_ops
        .last()
        .map_or_else(|| p.pump.schema.clone(), |o| o.output_schema())
}

/// Spawns the sites and cloud for every pipeline, runs the pumps, and
/// joins everything, restoring operator state into `pipelines`. Returns
/// the cloud state and how many site threads were spawned. Pipelines
/// whose stream already ended (`eos_sent`) spawn nothing. In chaos mode
/// every hop gets a fault injector, a resilient link, and a reverse ack
/// channel, and the cloud runs the barrier-aligning variant.
fn run_phase(
    io: &PhaseIo<'_>,
    pipelines: &mut [PipelinePlan],
    cloud_state: CloudState,
    cloud_in_schema: &SchemaRef,
    chaos: Option<&ChaosRun>,
) -> Result<(CloudState, usize)> {
    let cap = io.cfg.channel_capacity.max(1);
    let n_pipes = pipelines.len();
    let mut sites_spawned = 0usize;
    let participated: Vec<bool> = pipelines.iter().map(|p| !p.pump.eos_sent).collect();

    // Site node lists, to restore `pipe.sites` after the scope ends
    // (the scoped `&mut` borrows release only at the scope boundary).
    let site_nodes: Vec<Vec<NodeId>> = pipelines
        .iter()
        .map(|p| p.sites.iter().map(|(n, _)| *n).collect())
        .collect();
    // When the doomed node hosts a site somewhere, that site thread
    // observes the crash switch; otherwise the node is a pass-through
    // hop and the pump whose route crosses it plays the victim.
    let doomed_site_hosted = chaos
        .and_then(|c| c.switch.as_ref())
        .is_some_and(|s| site_nodes.iter().any(|ns| ns.contains(&s.node)));

    type SiteOps = Vec<Vec<Box<dyn Operator>>>;
    let scoped: Result<(CloudState, Vec<SiteOps>)> = std::thread::scope(|scope| {
        let (inbox_tx, inbox_rx) = bounded::<(usize, Vec<u8>)>(cap * n_pipes);
        let mut inbox_depths = Vec::with_capacity(n_pipes);
        let mut site_handles = Vec::with_capacity(n_pipes);
        let mut pump_handles = Vec::new();
        // Per-pipeline reverse ack channel for the hop into the cloud
        // (chaos mode only).
        let mut cloud_acks: Vec<Option<Sender<AckMsg>>> = Vec::with_capacity(n_pipes);

        for (p, pipe) in pipelines.iter_mut().enumerate() {
            let inbox_depth = Arc::new(AtomicU64::new(0));
            inbox_depths.push(Arc::clone(&inbox_depth));
            if pipe.pump.eos_sent {
                site_handles.push(Vec::new());
                cloud_acks.push(None);
                continue;
            }
            let PipelinePlan {
                node,
                pump: pump_state,
                sites,
                ..
            } = pipe;
            let src_node = *node;
            let taken = std::mem::take(sites);
            let nodes = &site_nodes[p];
            let n_sites = taken.len();

            // One channel per hop into a site; hop i feeds site i. In
            // chaos mode each hop level (0..=n_sites; level n_sites is
            // the hop into the cloud) also gets a reverse ack channel.
            let mut hops: Vec<Hop> = (0..n_sites)
                .map(|_| {
                    let (tx, rx) = bounded::<Vec<u8>>(cap);
                    (tx, Some(rx), Arc::new(AtomicU64::new(0)))
                })
                .collect();
            let mut ack_txs: Vec<Option<Sender<AckMsg>>> = Vec::new();
            let mut ack_rxs: Vec<Option<Receiver<AckMsg>>> = Vec::new();
            if chaos.is_some() {
                for _ in 0..=n_sites {
                    let (t, r) = bounded::<AckMsg>(cap * 64);
                    ack_txs.push(Some(t));
                    ack_rxs.push(Some(r));
                }
            }
            let mut mk_tx = |level: usize, wire_tx: WireTx| -> Result<TxLink> {
                match chaos {
                    Some(c) => {
                        let ack_rx = ack_rxs[level]
                            .take()
                            .ok_or_else(|| internal("ack channel consumed twice"))?;
                        Ok(TxLink::reliable(
                            wire_tx,
                            ReliableTx::new(
                                format!("pipe{p}/hop{level}"),
                                ack_rx,
                                LinkChaos::new(&c.plan, c.link_id(p, level)),
                                Arc::clone(&c.stats),
                            ),
                        ))
                    }
                    None => Ok(TxLink::plain(wire_tx)),
                }
            };

            let pump_tx = if n_sites == 0 {
                mk_tx(
                    0,
                    io.wire_tx(
                        src_node,
                        io.cloud_node,
                        TxTarget::Inbox(inbox_tx.clone(), p),
                        Arc::clone(&inbox_depth),
                    )?,
                )?
            } else {
                mk_tx(
                    0,
                    io.wire_tx(
                        src_node,
                        nodes[0],
                        TxTarget::Direct(hops[0].0.clone()),
                        Arc::clone(&hops[0].2),
                    )?,
                )?
            };

            // Spawn sites with forward-threaded schemas.
            let mut in_schema = pump_state
                .ops
                .last()
                .map_or_else(|| pump_state.schema.clone(), |o| o.output_schema());
            let mut handles = Vec::with_capacity(n_sites);
            for (i, (site_node, ops)) in taken.into_iter().enumerate() {
                let out_tx = if i + 1 < n_sites {
                    mk_tx(
                        i + 1,
                        io.wire_tx(
                            site_node,
                            nodes[i + 1],
                            TxTarget::Direct(hops[i + 1].0.clone()),
                            Arc::clone(&hops[i + 1].2),
                        )?,
                    )?
                } else {
                    mk_tx(
                        i + 1,
                        io.wire_tx(
                            site_node,
                            io.cloud_node,
                            TxTarget::Inbox(inbox_tx.clone(), p),
                            Arc::clone(&inbox_depth),
                        )?,
                    )?
                };
                let rx = hops[i]
                    .1
                    .take()
                    .ok_or_else(|| internal("hop receiver consumed twice"))?;
                let rx_link = match chaos {
                    Some(c) => RxLink::Reliable {
                        rx,
                        rel: ReliableRx::new(
                            ack_txs[i]
                                .take()
                                .ok_or_else(|| internal("ack sender consumed twice"))?,
                            Arc::clone(&c.stats),
                        ),
                        abort: Arc::clone(&c.abort),
                    },
                    None => RxLink::Plain(rx),
                };
                let site_chaos = chaos.map(|c| SiteChaos {
                    store: Arc::clone(&c.store),
                    pipe: p,
                    site_idx: i,
                    doom: c
                        .switch
                        .as_ref()
                        .filter(|s| s.node == site_node)
                        .map(Arc::clone),
                    doom_name: c.doomed_name.clone(),
                });
                let site_tel = io.cfg.telemetry.enabled.then(|| SiteTel {
                    node: io.topo.node(site_node).name.clone(),
                    origin: p as u64,
                    every: io.cfg.telemetry.sample_every,
                });
                let abort_flag = chaos.map(|c| Arc::clone(&c.abort));
                let depth_in = Arc::clone(&hops[i].2);
                let out_schema = ops
                    .last()
                    .map_or_else(|| in_schema.clone(), |o| o.output_schema());
                let wire = io.wire.clone();
                let schema = in_schema.clone();
                handles.push(scope.spawn(move || {
                    let r = run_site(
                        ops, schema, rx_link, depth_in, out_tx, wire, site_chaos, site_tel,
                    );
                    if r.is_err() {
                        if let Some(a) = &abort_flag {
                            a.store(true, Ordering::Relaxed);
                        }
                    }
                    r
                }));
                sites_spawned += 1;
                if let Some(c) = chaos {
                    c.stats.sites_spawned.fetch_add(1, Ordering::Relaxed);
                }
                in_schema = out_schema;
            }
            site_handles.push(handles);
            cloud_acks.push(match chaos {
                Some(_) => Some(
                    ack_txs[n_sites]
                        .take()
                        .ok_or_else(|| internal("cloud ack sender consumed twice"))?,
                ),
                None => None,
            });
            // The hop senders were cloned into the WireTx values; drop
            // the originals so channels disconnect when sites finish.
            drop(hops);

            let wire = io.wire.clone();
            let cfg = io.cfg;
            let pump_doom = match chaos.and_then(|c| c.switch.as_ref()) {
                Some(s) if !doomed_site_hosted && route_crosses(io, src_node, nodes, s.node)? => {
                    Some(Arc::clone(s))
                }
                _ => None,
            };
            let pump_chaos = chaos.map(|c| PumpChaos {
                store: Arc::clone(&c.store),
                pipe: p,
                every: c.checkpoint_every,
                abort: Arc::clone(&c.abort),
                doom: pump_doom,
                doom_name: c.doomed_name.clone(),
            });
            let abort_flag = chaos.map(|c| Arc::clone(&c.abort));
            pump_handles.push(scope.spawn(move || -> Result<()> {
                let mut tx = pump_tx;
                let r = pump(pump_state, &mut tx, &wire, cfg, pump_chaos.as_ref());
                if r.is_err() {
                    if let Some(a) = &abort_flag {
                        a.store(true, Ordering::Relaxed);
                    }
                }
                r
            }));
        }

        let wire = io.wire.clone();
        let schema = cloud_in_schema.clone();
        let depths = inbox_depths;
        let cloud_handle = match chaos {
            Some(c) => {
                let rel: Vec<ReliableRx> = cloud_acks
                    .into_iter()
                    .map(|opt| {
                        // Skipped pipelines get a dead-end ack channel.
                        let tx = opt.unwrap_or_else(|| bounded::<AckMsg>(1).0);
                        ReliableRx::new(tx, Arc::clone(&c.stats))
                    })
                    .collect();
                let store = Arc::clone(&c.store);
                let abort = Arc::clone(&c.abort);
                scope.spawn(move || {
                    let r = run_cloud_chaos(
                        cloud_state,
                        schema,
                        inbox_rx,
                        depths,
                        wire,
                        rel,
                        store,
                        Arc::clone(&abort),
                    );
                    if r.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    r
                })
            }
            None => scope.spawn(move || run_cloud(cloud_state, schema, inbox_rx, depths, wire)),
        };
        drop(inbox_tx);

        let mut pump_err: Option<NebulaError> = None;
        for handle in pump_handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    pump_err.get_or_insert(e);
                }
                Err(_) => {
                    pump_err.get_or_insert_with(|| {
                        NebulaError::Eval("cluster: pump thread panicked".into())
                    });
                }
            }
        }

        // Join sites and the cloud; prefer their errors over pump
        // errors (a dead site makes the pump fail with "hung up" — the
        // site's own error is the informative one).
        let mut site_err: Option<NebulaError> = None;
        let mut all_ops: Vec<SiteOps> = Vec::with_capacity(n_pipes);
        for handles in site_handles {
            let mut pipe_ops = Vec::with_capacity(handles.len());
            for handle in handles {
                match handle.join() {
                    Ok(Ok(ops)) => pipe_ops.push(ops),
                    Ok(Err(e)) => {
                        site_err.get_or_insert(e);
                        pipe_ops.push(Vec::new());
                    }
                    Err(_) => {
                        site_err.get_or_insert_with(|| {
                            NebulaError::Eval("cluster: site thread panicked".into())
                        });
                        pipe_ops.push(Vec::new());
                    }
                }
            }
            all_ops.push(pipe_ops);
        }
        let cloud = match cloud_handle.join() {
            Ok(Ok(result)) => Some(result),
            Ok(Err(e)) => {
                site_err.get_or_insert(e);
                None
            }
            Err(_) => {
                site_err.get_or_insert_with(|| {
                    NebulaError::Eval("cluster: cloud thread panicked".into())
                });
                None
            }
        };
        if let Some(e) = site_err.or(pump_err) {
            return Err(e);
        }
        let state = cloud.ok_or_else(|| internal("cloud thread vanished without an error"))?;
        Ok((state, all_ops))
    });

    let (state, all_ops) = scoped?;
    for (i, (pipe, (nodes, ops))) in pipelines
        .iter_mut()
        .zip(site_nodes.into_iter().zip(all_ops))
        .enumerate()
    {
        if !participated[i] {
            continue;
        }
        pipe.sites = nodes.into_iter().zip(ops).collect();
    }
    Ok((state, sites_spawned))
}
