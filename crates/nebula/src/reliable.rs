//! The resilient wire link: checksums, sequence numbers, acks and
//! retransmission over the cluster's lossy (chaos-injected) channels.
//!
//! Every payload crossing a link is wrapped in a [`crate::wire`]
//! envelope carrying a per-link sequence number and a CRC32 over header
//! and payload. The receiving side ([`ReliableRx`]) drops corrupt
//! envelopes (any bit flip fails the CRC), suppresses duplicates,
//! re-orders buffered out-of-order arrivals, and acknowledges
//! cumulatively on a small reverse channel. The sending side
//! ([`ReliableTx`]) keeps a bounded in-flight window of unacknowledged
//! envelopes and retransmits on NACK. When acks stop coming it does not
//! guess: after a timeout (capped exponential backoff) it sends a probe,
//! a heartbeat carrying its next sequence number, and the receiver
//! answers with a NACK for the first envelope it misses (or a re-ack if
//! it misses none). A slow receiver therefore never causes a
//! retransmission, and the operator pipeline above sees exactly the
//! frame sequence it would see on a perfect link, in order, exactly
//! once.
//!
//! Heartbeats ([`ReliableTx::heartbeat`]) keep a quiet link observably
//! alive; a receiver that sees nothing — not even heartbeats — for its
//! configured patience concludes the peer is dead and reports
//! [`ClusterError::NodeDown`] instead of hanging forever.

use crate::chaos::{ChaosStats, LinkChaos};
use crate::error::{ClusterError, NebulaError, Result};
use crate::wire::{decode_envelope, encode_envelope, ENV_HEARTBEAT, ENV_PAYLOAD};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cumulative acknowledgement (`Ack`: everything up to and including
/// `seq` arrived) or a retransmission request (`Nack`: `seq` is the
/// next envelope the receiver needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckMsg {
    Ack(u64),
    Nack(u64),
}

/// Nominal wire size of one ack/nack (kind byte + sequence), accounted
/// against the reverse channel.
pub(crate) const ACK_WIRE_BYTES: u64 = 9;

/// Max in-flight (unacknowledged) envelopes before a sender blocks.
pub(crate) const DEFAULT_WINDOW: usize = 32;

/// Unanswered ack timeouts (each followed by a probe) before a sender
/// declares the link dead (backoff caps at [`BACKOFF_CAP`], so this
/// bounds flush time).
const MAX_TIMEOUT_ROUNDS: u32 = 2_000;

const BACKOFF_START: Duration = Duration::from_micros(200);
const BACKOFF_CAP: Duration = Duration::from_millis(4);

fn link_down(link: &str) -> NebulaError {
    ClusterError::LinkDown { link: link.into() }.into()
}

/// The sending half of a resilient link. Generic over the actual
/// transmission (`emit` closures), so the cluster's accounting sender
/// and plain test channels both plug in.
pub(crate) struct ReliableTx {
    label: String,
    seq: u64,
    /// Unacked envelopes: seq → (clean encoded envelope, record count).
    in_flight: BTreeMap<u64, (Vec<u8>, u64)>,
    window: usize,
    ack_rx: Receiver<AckMsg>,
    chaos: LinkChaos,
    stats: Arc<ChaosStats>,
}

impl ReliableTx {
    pub fn new(
        label: impl Into<String>,
        ack_rx: Receiver<AckMsg>,
        chaos: LinkChaos,
        stats: Arc<ChaosStats>,
    ) -> Self {
        ReliableTx {
            label: label.into(),
            seq: 0,
            in_flight: BTreeMap::new(),
            window: DEFAULT_WINDOW,
            ack_rx,
            chaos,
            stats,
        }
    }

    /// Wraps `payload` in a sequenced, checksummed envelope and
    /// transmits it through the chaos layer, blocking (and
    /// retransmitting with backoff) while the in-flight window is full.
    pub fn send<F>(&mut self, payload: &[u8], records: u64, emit: &mut F) -> Result<()>
    where
        F: FnMut(Vec<u8>, u64) -> Result<()>,
    {
        self.drain_acks(emit)?;
        self.wait_below_window(emit)?;
        let seq = self.seq;
        self.seq += 1;
        let env = encode_envelope(ENV_PAYLOAD, seq, payload);
        self.in_flight.insert(seq, (env.clone(), records));
        for t in self.chaos.transmit(env) {
            emit(t, records)?;
        }
        Ok(())
    }

    /// Sends an unsequenced liveness beacon (not retransmitted — the
    /// next one supersedes it). It carries the next sequence number, so
    /// it also serves as a loss probe: the receiver NACKs a gap before
    /// it or re-acks.
    pub fn heartbeat<F>(&mut self, emit: &mut F) -> Result<()>
    where
        F: FnMut(Vec<u8>, u64) -> Result<()>,
    {
        self.stats.heartbeats.fetch_add(1, atomic_relaxed());
        let env = encode_envelope(ENV_HEARTBEAT, self.seq, &[]);
        for t in self.chaos.transmit(env) {
            emit(t, 0)?;
        }
        Ok(())
    }

    /// Blocks until every sent envelope is acknowledged — the link-level
    /// end-of-stream guarantee. Releases any frame the chaos layer is
    /// still holding for reordering first, then probes with capped
    /// backoff until the window drains or the link is declared dead.
    pub fn flush<F>(&mut self, emit: &mut F) -> Result<()>
    where
        F: FnMut(Vec<u8>, u64) -> Result<()>,
    {
        if let Some(held) = self.chaos.release() {
            emit(held, 0)?;
        }
        let mut backoff = BACKOFF_START;
        let mut rounds = 0u32;
        while !self.in_flight.is_empty() {
            match self.ack_rx.recv_timeout(backoff) {
                Ok(msg) => self.on_ack(msg, emit)?,
                Err(RecvTimeoutError::Timeout) => {
                    rounds += 1;
                    if rounds > MAX_TIMEOUT_ROUNDS {
                        return Err(link_down(&self.label));
                    }
                    self.heartbeat(emit)?;
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
                Err(RecvTimeoutError::Disconnected) => return Err(link_down(&self.label)),
            }
        }
        Ok(())
    }

    /// Envelopes currently awaiting acknowledgement.
    #[cfg(test)]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn drain_acks<F>(&mut self, emit: &mut F) -> Result<()>
    where
        F: FnMut(Vec<u8>, u64) -> Result<()>,
    {
        while let Ok(msg) = self.ack_rx.try_recv() {
            self.on_ack(msg, emit)?;
        }
        Ok(())
    }

    fn wait_below_window<F>(&mut self, emit: &mut F) -> Result<()>
    where
        F: FnMut(Vec<u8>, u64) -> Result<()>,
    {
        let mut backoff = BACKOFF_START;
        let mut rounds = 0u32;
        while self.in_flight.len() >= self.window {
            match self.ack_rx.recv_timeout(backoff) {
                Ok(msg) => self.on_ack(msg, emit)?,
                Err(RecvTimeoutError::Timeout) => {
                    rounds += 1;
                    if rounds > MAX_TIMEOUT_ROUNDS {
                        return Err(link_down(&self.label));
                    }
                    self.heartbeat(emit)?;
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
                Err(RecvTimeoutError::Disconnected) => return Err(link_down(&self.label)),
            }
        }
        Ok(())
    }

    fn on_ack<F>(&mut self, msg: AckMsg, emit: &mut F) -> Result<()>
    where
        F: FnMut(Vec<u8>, u64) -> Result<()>,
    {
        match msg {
            AckMsg::Ack(upto) => {
                let keep = self.in_flight.split_off(&(upto + 1));
                self.in_flight = keep;
            }
            AckMsg::Nack(seq) => {
                if let Some((env, records)) = self.in_flight.get(&seq) {
                    let (env, records) = (env.clone(), *records);
                    self.stats.retransmits.fetch_add(1, atomic_relaxed());
                    for t in self.chaos.transmit(env) {
                        emit(t, records)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Folds this link's injected-fault counters into the shared stats when
/// the link closes — after a clean flush, and equally when a crash
/// tears the link down unflushed, so every injected fault is counted.
impl Drop for ReliableTx {
    fn drop(&mut self) {
        let c = &self.chaos;
        self.stats
            .injected_drops
            .fetch_add(c.drops, atomic_relaxed());
        self.stats.injected_dups.fetch_add(c.dups, atomic_relaxed());
        self.stats
            .injected_corruptions
            .fetch_add(c.corruptions, atomic_relaxed());
        self.stats
            .injected_reorders
            .fetch_add(c.reorders, atomic_relaxed());
    }
}

fn atomic_relaxed() -> std::sync::atomic::Ordering {
    std::sync::atomic::Ordering::Relaxed
}

/// What one received transmission amounted to.
pub(crate) enum RxEvent {
    /// The next in-order payload.
    Payload(Vec<u8>),
    /// Bookkeeping only (heartbeat, duplicate, corrupt, buffered
    /// out-of-order) — poll [`ReliableRx::next_buffered`] and receive on.
    Control,
}

/// The receiving half of a resilient link: CRC verification,
/// deduplication, in-order reassembly, cumulative acks.
pub(crate) struct ReliableRx {
    expected: u64,
    buffered: BTreeMap<u64, Vec<u8>>,
    ack_tx: Sender<AckMsg>,
    stats: Arc<ChaosStats>,
    last_heard: Instant,
}

impl ReliableRx {
    pub fn new(ack_tx: Sender<AckMsg>, stats: Arc<ChaosStats>) -> Self {
        ReliableRx {
            expected: 0,
            buffered: BTreeMap::new(),
            ack_tx,
            stats,
            last_heard: Instant::now(),
        }
    }

    /// Classifies one raw transmission. Corruption and duplication are
    /// absorbed here (with a NACK / re-ACK on the reverse channel);
    /// only the next in-order payload surfaces.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> RxEvent {
        self.last_heard = Instant::now();
        let env = match decode_envelope(bytes) {
            Ok(env) => env,
            Err(_) => {
                self.stats.corrupt_dropped.fetch_add(1, atomic_relaxed());
                self.send_ctl(AckMsg::Nack(self.expected));
                return RxEvent::Control;
            }
        };
        if env.kind != ENV_PAYLOAD {
            // Liveness is already refreshed. A heartbeat carries the
            // sender's next sequence number, so it doubles as a loss
            // probe: NACK the first gap before it, or re-ack when
            // nothing is missing (the last ack may have been dropped).
            if env.kind == ENV_HEARTBEAT {
                if env.seq > self.expected {
                    self.send_ctl(AckMsg::Nack(self.expected));
                } else if self.expected > 0 {
                    self.send_ctl(AckMsg::Ack(self.expected - 1));
                }
            }
            return RxEvent::Control;
        }
        match env.seq.cmp(&self.expected) {
            std::cmp::Ordering::Less => {
                self.stats
                    .duplicates_suppressed
                    .fetch_add(1, atomic_relaxed());
                // Re-ack: the original ack may have been lost.
                self.send_ctl(AckMsg::Ack(self.expected - 1));
                RxEvent::Control
            }
            std::cmp::Ordering::Equal => {
                self.expected += 1;
                self.send_ctl(AckMsg::Ack(env.seq));
                RxEvent::Payload(env.payload)
            }
            std::cmp::Ordering::Greater => {
                if self.buffered.insert(env.seq, env.payload).is_some() {
                    self.stats
                        .duplicates_suppressed
                        .fetch_add(1, atomic_relaxed());
                }
                self.send_ctl(AckMsg::Nack(self.expected));
                RxEvent::Control
            }
        }
    }

    /// Pops the next in-order payload the out-of-order buffer already
    /// holds, if any (drain fully after each delivered payload).
    pub fn next_buffered(&mut self) -> Option<Vec<u8>> {
        let payload = self.buffered.remove(&self.expected)?;
        self.send_ctl(AckMsg::Ack(self.expected));
        self.expected += 1;
        Some(payload)
    }

    /// How long since anything (including heartbeats) arrived.
    pub fn silence(&self) -> Duration {
        self.last_heard.elapsed()
    }

    /// Declares the peer dead after `patience` of silence.
    pub fn check_liveness(&self, link: &str, patience: Duration) -> Result<()> {
        if self.silence() > patience {
            Err(ClusterError::NodeDown {
                node: format!("silent peer on link {link}"),
            }
            .into())
        } else {
            Ok(())
        }
    }

    fn send_ctl(&self, msg: AckMsg) {
        // Acks are cumulative and nacks are re-issued on the next gap:
        // a full reverse channel can safely drop either.
        if self.ack_tx.try_send(msg).is_ok() {
            self.stats
                .ack_bytes
                .fetch_add(ACK_WIRE_BYTES, atomic_relaxed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::wire::{crc32, ENVELOPE_OVERHEAD};
    use crossbeam::channel::bounded;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// Drives `n` payloads through a chaos-lossy loopback link and
    /// asserts exactly-once, in-order delivery. Single-threaded, so the
    /// flush is driven as explicit retransmission rounds interleaved
    /// with receiver drains (a blocking [`ReliableTx::flush`] would
    /// starve its own receiver here): each round probes, and the NACK
    /// the probe draws triggers the retransmission.
    fn loopback(plan: &FaultPlan, n: u32) -> (Vec<Vec<u8>>, Arc<ChaosStats>) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let stats = Arc::new(ChaosStats::default());
        let (ack_tx, ack_rx) = bounded::<AckMsg>(4096);
        let mut tx = ReliableTx::new(
            "test-link",
            ack_rx,
            LinkChaos::new(plan, 7),
            Arc::clone(&stats),
        );
        let mut rx = ReliableRx::new(ack_tx, Arc::clone(&stats));
        let wire: Rc<RefCell<VecDeque<Vec<u8>>>> = Rc::new(RefCell::new(VecDeque::new()));
        let mut delivered: Vec<Vec<u8>> = Vec::new();

        let w = Rc::clone(&wire);
        let mut emit = move |bytes: Vec<u8>, _records: u64| -> Result<()> {
            w.borrow_mut().push_back(bytes);
            Ok(())
        };

        let pump_rx = |rx: &mut ReliableRx, delivered: &mut Vec<Vec<u8>>| loop {
            let Some(bytes) = wire.borrow_mut().pop_front() else {
                break;
            };
            if let RxEvent::Payload(p) = rx.on_bytes(&bytes) {
                delivered.push(p);
            }
            while let Some(p) = rx.next_buffered() {
                delivered.push(p);
            }
        };

        for i in 0..n {
            tx.send(&i.to_le_bytes(), 1, &mut emit).unwrap();
            pump_rx(&mut rx, &mut delivered);
        }
        if let Some(held) = tx.chaos.release() {
            emit(held, 0).unwrap();
            pump_rx(&mut rx, &mut delivered);
        }
        for _ in 0..10_000 {
            tx.drain_acks(&mut emit).unwrap();
            pump_rx(&mut rx, &mut delivered);
            if tx.in_flight() == 0 {
                break;
            }
            tx.heartbeat(&mut emit).unwrap();
            pump_rx(&mut rx, &mut delivered);
        }
        assert_eq!(tx.in_flight(), 0, "window drained");
        (delivered, stats)
    }

    #[test]
    fn perfect_link_delivers_in_order() {
        let (got, _) = loopback(&FaultPlan::seeded(1), 100);
        assert_eq!(got.len(), 100);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p, &(i as u32).to_le_bytes().to_vec());
        }
    }

    #[test]
    fn lossy_link_still_delivers_exactly_once_in_order() {
        let plan = FaultPlan::seeded(42)
            .drop_frames(0.15)
            .duplicate_frames(0.1)
            .reorder_frames(0.1)
            .corrupt_frames(0.05);
        let (got, stats) = loopback(&plan, 300);
        assert_eq!(got.len(), 300, "exactly once despite chaos");
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p, &(i as u32).to_le_bytes().to_vec(), "in order");
        }
        let o = atomic_relaxed();
        assert!(stats.retransmits.load(o) > 0, "drops forced retransmits");
        assert!(stats.corrupt_dropped.load(o) > 0, "corruption detected");
        assert!(stats.duplicates_suppressed.load(o) > 0, "dups suppressed");
    }

    #[test]
    fn corrupt_envelope_is_dropped_and_nacked() {
        let stats = Arc::new(ChaosStats::default());
        let (ack_tx, ack_rx) = bounded::<AckMsg>(8);
        let mut rx = ReliableRx::new(ack_tx, Arc::clone(&stats));
        let mut env = encode_envelope(ENV_PAYLOAD, 0, b"hello");
        env[ENVELOPE_OVERHEAD] ^= 0x40;
        assert!(matches!(rx.on_bytes(&env), RxEvent::Control));
        assert_eq!(stats.corrupt_dropped.load(atomic_relaxed()), 1);
        assert_eq!(ack_rx.try_recv(), Ok(AckMsg::Nack(0)));
        // The clean envelope then goes through.
        let clean = encode_envelope(ENV_PAYLOAD, 0, b"hello");
        assert!(crc32(b"x") != 0, "crc sanity");
        match rx.on_bytes(&clean) {
            RxEvent::Payload(p) => assert_eq!(p, b"hello"),
            RxEvent::Control => panic!("clean envelope must deliver"),
        }
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let stats = Arc::new(ChaosStats::default());
        let (ack_tx, ack_rx) = bounded::<AckMsg>(8);
        let mut rx = ReliableRx::new(ack_tx, Arc::clone(&stats));
        let env = encode_envelope(ENV_PAYLOAD, 0, b"once");
        assert!(matches!(rx.on_bytes(&env), RxEvent::Payload(_)));
        assert!(matches!(rx.on_bytes(&env), RxEvent::Control), "dup eaten");
        assert_eq!(stats.duplicates_suppressed.load(atomic_relaxed()), 1);
        assert_eq!(ack_rx.try_recv(), Ok(AckMsg::Ack(0)));
        assert_eq!(ack_rx.try_recv(), Ok(AckMsg::Ack(0)), "dup re-acked");
    }

    #[test]
    fn silent_peer_is_declared_dead() {
        let stats = Arc::new(ChaosStats::default());
        let (ack_tx, _ack_rx) = bounded::<AckMsg>(8);
        let rx = ReliableRx::new(ack_tx, stats);
        std::thread::sleep(Duration::from_millis(20));
        let err = rx
            .check_liveness("edge→cloud", Duration::from_millis(5))
            .unwrap_err();
        assert!(err.to_string().contains("is down"), "{err}");
        assert!(rx
            .check_liveness("edge→cloud", Duration::from_secs(60))
            .is_ok());
    }

    #[test]
    fn heartbeats_keep_a_quiet_link_alive() {
        let stats = Arc::new(ChaosStats::default());
        let (ack_tx, ack_rx) = bounded::<AckMsg>(8);
        let mut tx = ReliableTx::new(
            "hb",
            ack_rx,
            LinkChaos::new(&FaultPlan::seeded(0), 0),
            Arc::clone(&stats),
        );
        let mut rx = ReliableRx::new(ack_tx, Arc::clone(&stats));
        std::thread::sleep(Duration::from_millis(10));
        let mut last = Vec::new();
        let mut emit = |bytes: Vec<u8>, _| -> Result<()> {
            last.push(bytes);
            Ok(())
        };
        tx.heartbeat(&mut emit).unwrap();
        for b in last {
            assert!(matches!(rx.on_bytes(&b), RxEvent::Control));
        }
        assert!(
            rx.silence() < Duration::from_millis(5),
            "liveness refreshed"
        );
        assert_eq!(stats.heartbeats.load(atomic_relaxed()), 1);
    }
}
