//! Durable event store: a segmented write-ahead log under the
//! [`EngineServer`](crate::server::EngineServer), with crash recovery
//! and time-travel replay.
//!
//! # Architecture
//!
//! ```text
//!  who appends                          appender lane (one thread per shard)
//!  ───────────────────────────┐         ┌───────────────────────────────────┐
//!  admission  RequestAccepted ┤bounded  │ drain batch → write frames →      │
//!  recorder   FrameAppended   ┤channel ─│ flush → fsync (group commit) →    │
//!  recorder   InstanceSealed  ┤         │ ack barriers → maybe rotate       │
//!  ───────────────────────────┘         └───────────────┬───────────────────┘
//!                                                       ▼
//!                                       wal-<lane>-<seq>.seg   (append-only)
//!                                       [len u32][crc32 u32][StoreEvent JSON]…
//! ```
//!
//! The server's admission step appends `RequestAccepted` (or
//! `RequestRequeued`); every `FrameAppended` and the one
//! `InstanceSealed` come from the instance's recorder, the
//! [`JournalWriter`](crate::journal::JournalWriter) inside its runtime,
//! of which the WAL is one output — the frames are the very ones it
//! stamps for its memory output. Either way the hot path
//! only enqueues an event on a bounded channel — it never blocks on an
//! fsync. Each lane's appender thread drains whatever has accumulated,
//! writes it, and commits the whole batch with **one** `fdatasync`
//! (group commit), so the durability cost amortizes across concurrent
//! instances. A full channel applies backpressure instead of dropping
//! records.
//!
//! Segments are append-only and never truncated: a reopened store
//! starts a fresh segment per lane, so a torn tail left by a crash is
//! sealed into read-only history where the recovery scan detects and
//! skips it ([`recover`]).
//!
//! # Lifecycle invariant
//!
//! Every accepted instance is sealed (`Completed` / `Abandoned` /
//! `DeadlineExceeded`) **exactly once**, across crashes: an instance
//! whose seal never hit disk is re-enqueued at reopen with a bumped
//! attempt number ([`StoreEvent::RequestRequeued`]), superseding the
//! partial frames of earlier attempts. [`fsck`] checks the invariant
//! offline; `tests/durability.rs` kills the store mid-flight and
//! asserts it end to end.
//!
//! # Time travel
//!
//! [`fetch_journal`] reconstructs any sealed instance's [`Journal`]
//! from its accept record (header) and the frames of its sealed
//! attempt — byte-identical to what live capture produced, so it
//! feeds [`ReplayEngine`](crate::journal::ReplayEngine) directly.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};

use crate::journal::{Frame, Journal, SCHEMA_VERSION};
use crate::telemetry::{Counter, LatencyHistogram, Registry};

pub mod events;
pub mod recover;
pub mod wal;

pub use events::{PersistedRequest, SealOutcome, StoreEvent};
pub use recover::{
    fsck, inspect, Finding, FsckReport, PendingInstance, RecoveredState, SealedSummary, Severity,
};

use recover::{scan_store, segment_name, FrameKeep};
use wal::SegmentWriter;

/// Store format version stamped into every segment's opening record.
pub const STORE_VERSION: u32 = 1;

/// Tuning knobs for an [`EventStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Appender lanes (threads); the server uses one per shard.
    pub lanes: usize,
    /// Rotate a segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Bounded depth of each lane's command channel (backpressure).
    pub queue_depth: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            lanes: 1,
            segment_bytes: 8 << 20,
            queue_depth: 1024,
        }
    }
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing.
        context: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// The store holds corruption or a lifecycle-invariant breach
    /// (see [`fsck`] for the full report).
    Corrupt(String),
    /// An appender lane died (latched I/O failure); the store no
    /// longer accepts events.
    LaneFailed,
    /// No instance with this id was ever accepted.
    UnknownInstance(u64),
    /// The instance exists but has not been sealed yet — its tape is
    /// still being written (or awaits re-execution).
    NotSealed(u64),
}

impl StoreError {
    fn io(context: &str, source: std::io::Error) -> StoreError {
        StoreError::Io {
            context: context.to_string(),
            source,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "{context}: {source}"),
            StoreError::Corrupt(detail) => write!(f, "store corrupt: {detail}"),
            StoreError::LaneFailed => write!(f, "an appender lane failed; store is read-only"),
            StoreError::UnknownInstance(id) => write!(f, "no instance {id} in the store"),
            StoreError::NotSealed(id) => write!(f, "instance {id} is not sealed yet"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What the submit path sends to an appender lane.
enum Cmd {
    /// Append one event; `enqueued` feeds the `wal_append` histogram
    /// (enqueue → durable latency).
    Append {
        event: StoreEvent,
        enqueued: Instant,
    },
    /// Reply once everything enqueued before this point is durable.
    Barrier(Sender<Result<(), String>>),
}

/// One appender lane: a bounded channel into a dedicated thread that
/// owns the lane's current segment file.
struct Lane {
    tx: Sender<Cmd>,
    thread: Option<std::thread::JoinHandle<()>>,
    failed: Arc<AtomicBool>,
}

/// Metric handles an appender thread updates; registered once in the
/// store's [`Registry`] and shared across lanes.
#[derive(Clone)]
struct LaneMetrics {
    appends: Arc<Counter>,
    append_errors: Arc<Counter>,
    fsyncs: Arc<Counter>,
    bytes: Arc<Counter>,
    rotations: Arc<Counter>,
    append_latency: Arc<LatencyHistogram>,
    fsync_latency: Arc<LatencyHistogram>,
}

impl LaneMetrics {
    fn register(registry: &Registry) -> LaneMetrics {
        LaneMetrics {
            appends: registry.counter("wal_appends"),
            append_errors: registry.counter("wal_append_errors"),
            fsyncs: registry.counter("wal_fsyncs"),
            bytes: registry.counter("wal_bytes"),
            rotations: registry.counter("wal_rotations"),
            append_latency: registry.histogram("wal_append"),
            fsync_latency: registry.histogram("wal_fsync"),
        }
    }
}

/// The durable event store. One per server; shared via `Arc`.
///
/// Dropping the store closes every lane: each appender drains its
/// queue, seals its segment, and commits a final fsync before the
/// thread joins.
pub struct EventStore {
    dir: PathBuf,
    lanes: Vec<Lane>,
    registry: Arc<Registry>,
    recovered: RecoveredState,
}

impl std::fmt::Debug for EventStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStore")
            .field("dir", &self.dir)
            .field("lanes", &self.lanes.len())
            .field("pending", &self.recovered.pending.len())
            .field("sealed", &self.recovered.sealed.len())
            .finish()
    }
}

impl EventStore {
    /// Open (or create) the store at `dir` with default tuning.
    pub fn open(dir: impl AsRef<Path>) -> Result<EventStore, StoreError> {
        EventStore::open_with(dir, StoreConfig::default())
    }

    /// Open (or create) the store at `dir`.
    ///
    /// Scans every existing segment first: torn tails (the expected
    /// crash artifact) become warnings in
    /// [`recovered`](Self::recovered) findings; corruption or a
    /// lifecycle-invariant breach aborts with [`StoreError::Corrupt`].
    /// Each lane then starts a **fresh** segment — old segments are
    /// never appended to, so recovery never needs to truncate.
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> Result<EventStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io("create store dir", e))?;
        let scan = scan_store(&dir, FrameKeep::None)?;
        if let Some(err) = scan.findings.iter().find(|f| f.severity == Severity::Error) {
            return Err(StoreError::Corrupt(if err.segment.is_empty() {
                err.detail.clone()
            } else {
                format!("{}: {}", err.segment, err.detail)
            }));
        }
        let recovered = RecoveredState::from_scan(&scan);
        let registry = Arc::new(Registry::new());
        let metrics = LaneMetrics::register(&registry);
        let lanes = (0..config.lanes.max(1))
            .map(|lane| {
                let seq = scan.max_segment.get(&lane).map_or(0, |s| s + 1);
                Lane::spawn(dir.clone(), lane, seq, config, metrics.clone())
            })
            .collect::<Result<Vec<Lane>, StoreError>>()?;
        Ok(EventStore {
            dir,
            lanes,
            registry,
            recovered,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the opening scan recovered: pending instances, sealed
    /// history, the next instance id, and any warnings.
    pub fn recovered(&self) -> &RecoveredState {
        &self.recovered
    }

    /// The store's metric registry (`wal_*` counters and latency
    /// histograms), foldable into a server telemetry snapshot.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Enqueue one event on the lane for `lane_hint` (the submitting
    /// shard index; wrapped over the lane count). Returns as soon as
    /// the event is queued — durability follows at the lane's next
    /// group commit; use [`sync`](Self::sync) to wait for it.
    pub fn append(&self, lane_hint: usize, event: StoreEvent) -> Result<(), StoreError> {
        let lane = &self.lanes[lane_hint % self.lanes.len()];
        if lane.failed.load(Ordering::Relaxed) {
            return Err(StoreError::LaneFailed);
        }
        lane.tx
            .send(Cmd::Append {
                event,
                enqueued: Instant::now(),
            })
            .map_err(|_| StoreError::LaneFailed)
    }

    /// Barrier: block until everything appended before this call is
    /// durable on every lane.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut acks: Vec<Receiver<Result<(), String>>> = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let (tx, rx) = bounded(1);
            lane.tx
                .send(Cmd::Barrier(tx))
                .map_err(|_| StoreError::LaneFailed)?;
            acks.push(rx);
        }
        for rx in acks {
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(msg)) => {
                    return Err(StoreError::Io {
                        context: "group commit".to_string(),
                        source: std::io::Error::other(msg),
                    })
                }
                Err(_) => return Err(StoreError::LaneFailed),
            }
        }
        Ok(())
    }

    /// Reconstruct the [`Journal`] of a sealed instance — byte-equal
    /// to live capture — after a barrier flush so the scan sees every
    /// committed frame.
    pub fn fetch_journal(&self, instance_id: u64) -> Result<Journal, StoreError> {
        self.sync()?;
        fetch_journal(&self.dir, instance_id)
    }

    /// Run a read-only integrity check over this store's directory
    /// (after a barrier flush).
    pub fn fsck(&self) -> Result<FsckReport, StoreError> {
        self.sync()?;
        fsck(&self.dir)
    }
}

impl Drop for EventStore {
    fn drop(&mut self) {
        for lane in &mut self.lanes {
            // Closing the channel is the shutdown signal.
            drop(std::mem::replace(&mut lane.tx, bounded(1).0));
            if let Some(handle) = lane.thread.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Reconstruct a sealed instance's [`Journal`] from the store at
/// `dir`, without opening it for writing (what `dflow-store replay`
/// uses). The tape is the accept record's header plus the frames of
/// the **sealed attempt**, in clock order — byte-identical to live
/// capture for `Completed` and `DeadlineExceeded` seals; an
/// `Abandoned` seal yields the partial tape recorded before the
/// instance died.
pub fn fetch_journal(dir: &Path, instance_id: u64) -> Result<Journal, StoreError> {
    let scan = scan_store(dir, FrameKeep::One(instance_id))?;
    if let Some(err) = scan.findings.iter().find(|f| f.severity == Severity::Error) {
        return Err(StoreError::Corrupt(err.detail.clone()));
    }
    let inst = scan
        .instances
        .get(&instance_id)
        .ok_or(StoreError::UnknownInstance(instance_id))?;
    let (attempt, _outcome) = inst.seal.ok_or(StoreError::NotSealed(instance_id))?;
    let frames: Vec<Frame> = scan
        .frames
        .get(&instance_id)
        .map(|frames| {
            frames
                .iter()
                .filter(|(a, _)| *a == attempt)
                .map(|(_, f)| f.clone())
                .collect()
        })
        .unwrap_or_default();
    Ok(Journal {
        version: SCHEMA_VERSION,
        strategy: inst.request.strategy.clone(),
        disable_backward: inst.request.disable_backward,
        schema_fingerprint: inst.request.schema_fingerprint,
        sources: inst.request.sources.clone(),
        time: 0,
        frames,
    })
}

/// What [`compact`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Segment files before / after.
    pub segments_before: usize,
    /// Segment files after compaction (always 1 for a non-empty store).
    pub segments_after: usize,
    /// Intact records before.
    pub records_before: u64,
    /// Records written to the compacted segment.
    pub records_after: u64,
    /// Bytes before.
    pub bytes_before: u64,
    /// Bytes after.
    pub bytes_after: u64,
    /// Frames dropped (superseded attempts of re-executed instances).
    pub frames_dropped: u64,
}

/// Rewrite the store at `dir` into a single fresh segment, dropping
/// torn tails and the superseded frames of non-final attempts while
/// preserving, bit-for-bit, what matters: [`fetch_journal`] output for
/// every sealed instance and the pending set.
///
/// Requires exclusive access (no live [`EventStore`] over `dir`).
/// Refuses a store with error-severity findings — run [`fsck`] first.
/// Not crash-atomic, but fail-safe: the old segments are renamed to
/// `*.seg.bak` before the compacted segment takes their place and are
/// deleted last, and as long as any `*.seg.bak` or `compact.tmp` file
/// remains, every scan ([`EventStore::open`], [`fsck`], `compact`
/// itself) refuses to proceed rather than silently misread a partial
/// segment set. If the process dies mid-compaction: when the compacted
/// segment (the highest-numbered `wal-000-*.seg`) is present and
/// complete, delete the leftovers; otherwise rename each `*.seg.bak`
/// back to `*.seg` and delete `compact.tmp`.
pub fn compact(dir: &Path) -> Result<CompactReport, StoreError> {
    let scan = scan_store(dir, FrameKeep::All)?;
    if let Some(err) = scan.findings.iter().find(|f| f.severity == Severity::Error) {
        return Err(StoreError::Corrupt(err.detail.clone()));
    }
    let files = recover::segment_files(dir)?;
    let next_seq = scan
        .max_segment
        .values()
        .copied()
        .max()
        .map_or(0, |s| s + 1);
    let mut report = CompactReport {
        segments_before: scan.segments,
        records_before: scan.records,
        bytes_before: scan.bytes,
        ..CompactReport::default()
    };
    if scan.instances.is_empty() && files.is_empty() {
        return Ok(report);
    }
    // Write the replacement segment under a name the scanner ignores.
    let tmp = dir.join("compact.tmp");
    {
        let file =
            std::fs::File::create(&tmp).map_err(|e| StoreError::io("create compact.tmp", e))?;
        let mut writer = SegmentWriter::new(std::io::BufWriter::new(file));
        fn put<W: Write>(
            writer: &mut SegmentWriter<W>,
            event: &StoreEvent,
        ) -> Result<(), StoreError> {
            let payload = serde::json::to_string(event);
            writer
                .append(payload.as_bytes())
                .map_err(|e| StoreError::io("write compact.tmp", e))
        }
        put(
            &mut writer,
            &StoreEvent::SegmentOpened {
                lane: 0,
                segment: next_seq,
                version: STORE_VERSION,
            },
        )?;
        for (id, inst) in &scan.instances {
            put(
                &mut writer,
                &StoreEvent::RequestAccepted {
                    request: inst.request.clone(),
                },
            )?;
            if inst.attempt > 0 {
                put(
                    &mut writer,
                    &StoreEvent::RequestRequeued {
                        instance_id: *id,
                        attempt: inst.attempt,
                    },
                )?;
            }
            // Keep only the final attempt's frames: the sealed
            // attempt, or the latest attempt of a pending instance.
            let keep_attempt = inst.seal.map_or(inst.attempt, |(a, _)| a);
            for (attempt, frame) in scan.frames.get(id).map_or(&[][..], |v| v.as_slice()) {
                if *attempt == keep_attempt {
                    put(
                        &mut writer,
                        &StoreEvent::FrameAppended {
                            instance_id: *id,
                            attempt: *attempt,
                            frame: frame.clone(),
                        },
                    )?;
                } else {
                    report.frames_dropped += 1;
                }
            }
            if let Some((attempt, outcome)) = inst.seal {
                put(
                    &mut writer,
                    &StoreEvent::InstanceSealed {
                        instance_id: *id,
                        attempt,
                        outcome,
                    },
                )?;
            }
        }
        let sealed_records = writer.records() + 1;
        put(
            &mut writer,
            &StoreEvent::SegmentSealed {
                records: sealed_records,
            },
        )?;
        report.records_after = writer.records();
        report.bytes_after = writer.bytes();
        writer
            .flush()
            .map_err(|e| StoreError::io("flush compact.tmp", e))?;
        let file = writer.get_mut().get_ref();
        // durability: the compacted segment must be on disk before the
        // originals are renamed away, or a crash loses the store.
        file.sync_all()
            .map_err(|e| StoreError::io("fsync compact.tmp", e))?;
    }
    // Swap: originals to *.bak, tmp into place, then delete the .baks.
    let mut baks = Vec::with_capacity(files.len());
    for f in &files {
        let bak = f.path.with_extension("seg.bak");
        std::fs::rename(&f.path, &bak).map_err(|e| StoreError::io("stash old segment", e))?;
        baks.push(bak);
    }
    std::fs::rename(&tmp, dir.join(segment_name(0, next_seq)))
        .map_err(|e| StoreError::io("install compacted segment", e))?;
    if let Ok(d) = std::fs::File::open(dir) {
        // durability: persist the renames before deleting the backups
        // (best effort — not all platforms allow fsync on a directory).
        let _ = d.sync_all();
    }
    for bak in baks {
        std::fs::remove_file(&bak).map_err(|e| StoreError::io("remove old segment", e))?;
    }
    report.segments_after = 1;
    Ok(report)
}

impl Lane {
    fn spawn(
        dir: PathBuf,
        lane: usize,
        start_seq: u64,
        config: StoreConfig,
        metrics: LaneMetrics,
    ) -> Result<Lane, StoreError> {
        let (tx, rx) = bounded(config.queue_depth.max(1));
        let failed = Arc::new(AtomicBool::new(false));
        let failed_in = Arc::clone(&failed);
        let thread = std::thread::Builder::new()
            .name(format!("dflow-wal-{lane}"))
            .spawn(move || {
                run_lane(
                    &dir,
                    lane,
                    start_seq,
                    config.segment_bytes,
                    rx,
                    metrics,
                    &failed_in,
                )
            })
            .map_err(|e| StoreError::io("spawn appender thread", e))?;
        Ok(Lane {
            tx,
            thread: Some(thread),
            failed,
        })
    }
}

type Segment = SegmentWriter<std::io::BufWriter<std::fs::File>>;

/// Open a fresh segment file for `(lane, seq)` and stamp its opening
/// record (flushed but not yet synced — the first group commit covers
/// it).
fn open_segment(dir: &Path, lane: usize, seq: u64) -> std::io::Result<Segment> {
    let path = dir.join(segment_name(lane, seq));
    let file = std::fs::OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(path)?;
    let mut writer = SegmentWriter::new(std::io::BufWriter::new(file));
    let header = serde::json::to_string(&StoreEvent::SegmentOpened {
        lane,
        segment: seq,
        version: STORE_VERSION,
    });
    writer.append(header.as_bytes())?;
    Ok(writer)
}

/// Flush buffered frames and commit them with one `fdatasync`.
fn commit(writer: &mut Segment, metrics: &LaneMetrics) -> std::io::Result<()> {
    writer.flush()?;
    let t0 = Instant::now();
    // durability: the group-commit point — one fdatasync makes every
    // record drained from the channel batch durable at once.
    writer.get_mut().get_ref().sync_data()?;
    metrics.fsync_latency.record(t0.elapsed());
    metrics.fsyncs.inc();
    Ok(())
}

/// The appender-lane thread: drain → write → group-commit → ack.
fn run_lane(
    dir: &Path,
    lane: usize,
    start_seq: u64,
    segment_bytes: u64,
    rx: Receiver<Cmd>,
    metrics: LaneMetrics,
    failed: &AtomicBool,
) {
    const MAX_BATCH: usize = 512;
    let mut seq = start_seq;
    let mut writer: Option<Segment> = match open_segment(dir, lane, seq) {
        Ok(w) => Some(w),
        Err(_) => {
            failed.store(true, Ordering::Relaxed);
            None
        }
    };
    let mut synced_bytes = 0u64;
    loop {
        let first = match rx.recv() {
            Ok(cmd) => cmd,
            Err(_) => break, // store dropped: final seal below
        };
        let mut batch = vec![first];
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(cmd) => batch.push(cmd),
                Err(_) => break,
            }
        }
        let mut barriers = Vec::new();
        let mut appended: Vec<Instant> = Vec::new();
        let mut io_err: Option<std::io::Error> = None;
        for cmd in batch {
            match cmd {
                Cmd::Append { event, enqueued } => {
                    let Some(w) = writer.as_mut() else {
                        metrics.append_errors.inc();
                        continue;
                    };
                    if io_err.is_some() {
                        metrics.append_errors.inc();
                        continue;
                    }
                    let payload = serde::json::to_string(&event);
                    match w.append(payload.as_bytes()) {
                        Ok(()) => appended.push(enqueued),
                        Err(e) => {
                            metrics.append_errors.inc();
                            io_err = Some(e);
                        }
                    }
                }
                Cmd::Barrier(ack) => barriers.push(ack),
            }
        }
        let commit_result = match (&mut writer, io_err) {
            (Some(w), None) => commit(w, &metrics),
            (_, Some(e)) => Err(e),
            (None, None) => Err(std::io::Error::other("lane has no open segment")),
        };
        match commit_result {
            Ok(()) => {
                let now = Instant::now();
                for enqueued in &appended {
                    metrics.append_latency.record(now.duration_since(*enqueued));
                }
                metrics.appends.add(appended.len() as u64);
                if let Some(w) = &writer {
                    metrics.bytes.add(w.bytes() - synced_bytes);
                    synced_bytes = w.bytes();
                }
            }
            Err(e) => {
                failed.store(true, Ordering::Relaxed);
                metrics.append_errors.add(appended.len() as u64);
                writer = None;
                for ack in barriers {
                    let _ = ack.send(Err(e.to_string()));
                }
                continue;
            }
        }
        // Rotate before acking barriers (the batch is already durable;
        // doing it here makes rotation visible after a sync()).
        if let Some(w) = &mut writer {
            if w.bytes() >= segment_bytes {
                let sealed = seal_segment(w, &metrics);
                if sealed.is_ok() {
                    seq += 1;
                    synced_bytes = 0;
                    match open_segment(dir, lane, seq) {
                        Ok(next) => {
                            metrics.rotations.inc();
                            writer = Some(next);
                        }
                        Err(_) => {
                            failed.store(true, Ordering::Relaxed);
                            writer = None;
                        }
                    }
                } else {
                    failed.store(true, Ordering::Relaxed);
                    writer = None;
                }
            }
        }
        for ack in barriers {
            let _ = ack.send(Ok(()));
        }
    }
    // Clean shutdown: seal the open segment so reopen sees a complete
    // tape rather than an (harmless but noisy) unsealed one.
    if let Some(w) = &mut writer {
        if seal_segment(w, &metrics).is_err() {
            failed.store(true, Ordering::Relaxed);
        }
    }
}

/// Append the segment's closing record and commit it.
fn seal_segment(writer: &mut Segment, metrics: &LaneMetrics) -> std::io::Result<()> {
    let seal = serde::json::to_string(&StoreEvent::SegmentSealed {
        records: writer.records() + 1,
    });
    writer.append(seal.as_bytes())?;
    commit(writer, metrics)
}

/// The WAL output of a durable instance's
/// [`JournalWriter`](crate::journal::JournalWriter): the instance's
/// address on the log (lane, id, attempt). The writer stamps the frame
/// clocks and decides when the one seal happens; this only wraps what
/// it is handed into [`StoreEvent`]s, so the tape [`fetch_journal`]
/// rebuilds is the one the writer's other outputs hold.
#[derive(Clone)]
pub(crate) struct WalRecorder {
    store: Arc<EventStore>,
    lane: usize,
    instance_id: u64,
    attempt: u32,
}

impl WalRecorder {
    pub(crate) fn new(
        store: Arc<EventStore>,
        lane: usize,
        instance_id: u64,
        attempt: u32,
    ) -> WalRecorder {
        WalRecorder {
            store,
            lane,
            instance_id,
            attempt,
        }
    }

    /// Append one stamped frame. Best-effort: a failed lane latches
    /// into `wal_append_errors` and the instance simply stays unsealed
    /// (so recovery re-executes it).
    pub(crate) fn frame(&self, frame: Frame) {
        let _ = self.store.append(
            self.lane,
            StoreEvent::FrameAppended {
                instance_id: self.instance_id,
                attempt: self.attempt,
                frame,
            },
        );
    }

    /// Append the instance's seal. Exactly-once is the caller's: the
    /// writer seals by being consumed, and the server's abandonment
    /// path runs only for an instance that never sealed.
    pub(crate) fn seal(&self, outcome: SealOutcome) {
        let _ = self.store.append(
            self.lane,
            StoreEvent::InstanceSealed {
                instance_id: self.instance_id,
                attempt: self.attempt,
                outcome,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::journal::Event;
    use crate::schema::AttrId;
    use crate::value::Value;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dflow-store-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(id: u64) -> PersistedRequest {
        PersistedRequest {
            instance_id: id,
            schema: "flow0".into(),
            strategy: "PCE100".into(),
            disable_backward: false,
            schema_fingerprint: 7,
            sources: vec![("income".into(), Value::Int(10))],
            label: None,
            deadline_ms: None,
        }
    }

    fn frame(clock: u64) -> Frame {
        Frame {
            clock,
            event: Event::Complete {
                attr: AttrId::from_index(clock as usize),
                value: Value::Int(clock as i64),
            },
        }
    }

    #[test]
    fn append_sync_reopen_round_trip() {
        let dir = tmp_dir("roundtrip");
        {
            let store = EventStore::open(&dir).unwrap();
            store
                .append(
                    0,
                    StoreEvent::RequestAccepted {
                        request: request(1),
                    },
                )
                .unwrap();
            for c in 0..3 {
                store
                    .append(
                        0,
                        StoreEvent::FrameAppended {
                            instance_id: 1,
                            attempt: 0,
                            frame: frame(c),
                        },
                    )
                    .unwrap();
            }
            store
                .append(
                    0,
                    StoreEvent::InstanceSealed {
                        instance_id: 1,
                        attempt: 0,
                        outcome: SealOutcome::Completed,
                    },
                )
                .unwrap();
            store.sync().unwrap();
            assert!(store.registry().counter("wal_appends").get() >= 5);
            assert!(store.registry().counter("wal_fsyncs").get() >= 1);
        }
        let store = EventStore::open(&dir).unwrap();
        let rec = store.recovered();
        assert_eq!(rec.pending.len(), 0);
        assert_eq!(rec.sealed.len(), 1);
        assert_eq!(rec.sealed[0].instance_id, 1);
        assert_eq!(rec.sealed[0].outcome, SealOutcome::Completed);
        assert_eq!(rec.next_instance_id, 2);
        let journal = store.fetch_journal(1).unwrap();
        assert_eq!(journal.frames.len(), 3);
        assert_eq!(journal.strategy, "PCE100");
        assert_eq!(journal.frames[2].clock, 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_instances_are_pending_after_reopen() {
        let dir = tmp_dir("pending");
        {
            let store = EventStore::open(&dir).unwrap();
            store
                .append(
                    0,
                    StoreEvent::RequestAccepted {
                        request: request(5),
                    },
                )
                .unwrap();
            store
                .append(
                    0,
                    StoreEvent::FrameAppended {
                        instance_id: 5,
                        attempt: 0,
                        frame: frame(0),
                    },
                )
                .unwrap();
            store.sync().unwrap();
        }
        let store = EventStore::open(&dir).unwrap();
        assert_eq!(store.recovered().pending.len(), 1);
        assert_eq!(store.recovered().pending[0].request.instance_id, 5);
        assert_eq!(store.recovered().pending[0].next_attempt, 1);
        assert!(matches!(
            store.fetch_journal(5),
            Err(StoreError::NotSealed(5))
        ));
        assert!(matches!(
            store.fetch_journal(99),
            Err(StoreError::UnknownInstance(99))
        ));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_frames_still_advance_the_id_counter() {
        let dir = tmp_dir("orphan-id");
        {
            let store = EventStore::open(&dir).unwrap();
            // Frames for instance 7 whose accept record never became
            // durable (the torn-acceptance crash artifact).
            store
                .append(
                    0,
                    StoreEvent::FrameAppended {
                        instance_id: 7,
                        attempt: 0,
                        frame: frame(0),
                    },
                )
                .unwrap();
            store.sync().unwrap();
        }
        let store = EventStore::open(&dir).unwrap();
        let rec = store.recovered();
        assert!(rec.findings.iter().any(|f| f.severity == Severity::Warning));
        // The dropped orphan must still reserve its id: resuming at 0
        // would hand id 7 to a fresh request and later scans would
        // attribute the stale frames to it.
        assert_eq!(rec.next_instance_id, 8);
        assert!(rec.pending.is_empty());
        assert!(rec.sealed.is_empty());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_and_reported() {
        let dir = tmp_dir("torn");
        {
            let store = EventStore::open(&dir).unwrap();
            store
                .append(
                    0,
                    StoreEvent::RequestAccepted {
                        request: request(1),
                    },
                )
                .unwrap();
            store
                .append(
                    0,
                    StoreEvent::RequestAccepted {
                        request: request(2),
                    },
                )
                .unwrap();
            store.sync().unwrap();
        }
        // Tear the tail of the segment mid-record (crash simulation).
        let seg = recover::segment_files(&dir).unwrap().pop().unwrap().path;
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();
        let store = EventStore::open(&dir).unwrap();
        let rec = store.recovered();
        // Instance 2's accept (or the shutdown seal) was torn away.
        assert!(rec.findings.iter().any(|f| f.severity == Severity::Warning));
        assert!(rec.findings.iter().all(|f| f.severity != Severity::Error));
        let report = store.fsck().unwrap();
        assert!(report.ok());
        assert!(report.warnings >= 1);
        assert!(report.to_text().contains("warning"));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_refuses_open() {
        let dir = tmp_dir("corrupt");
        {
            let store = EventStore::open(&dir).unwrap();
            store
                .append(
                    0,
                    StoreEvent::RequestAccepted {
                        request: request(1),
                    },
                )
                .unwrap();
            store.sync().unwrap();
        }
        let seg = recover::segment_files(&dir).unwrap().pop().unwrap().path;
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        match EventStore::open(&dir) {
            Err(StoreError::Corrupt(detail)) => {
                assert!(
                    detail.contains("checksum mismatch") || detail.contains("decode"),
                    "{detail}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_scan_spans_them() {
        let dir = tmp_dir("rotate");
        let config = StoreConfig {
            lanes: 1,
            segment_bytes: 512,
            queue_depth: 64,
        };
        {
            let store = EventStore::open_with(&dir, config).unwrap();
            for id in 0..20 {
                store
                    .append(
                        0,
                        StoreEvent::RequestAccepted {
                            request: request(id),
                        },
                    )
                    .unwrap();
                store
                    .append(
                        0,
                        StoreEvent::InstanceSealed {
                            instance_id: id,
                            attempt: 0,
                            outcome: SealOutcome::Completed,
                        },
                    )
                    .unwrap();
            }
            store.sync().unwrap();
            assert!(
                store.registry().counter("wal_rotations").get() >= 1,
                "512-byte segments must rotate"
            );
        }
        assert!(recover::segment_files(&dir).unwrap().len() >= 2);
        let store = EventStore::open_with(&dir, config).unwrap();
        assert_eq!(store.recovered().sealed.len(), 20);
        assert_eq!(store.recovered().next_instance_id, 20);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_preserves_journals_and_pending() {
        let dir = tmp_dir("compact");
        {
            let store = EventStore::open_with(
                &dir,
                StoreConfig {
                    lanes: 2,
                    segment_bytes: 256,
                    queue_depth: 64,
                },
            )
            .unwrap();
            // Sealed instance with a superseded attempt 0.
            store
                .append(
                    0,
                    StoreEvent::RequestAccepted {
                        request: request(1),
                    },
                )
                .unwrap();
            store
                .append(
                    0,
                    StoreEvent::FrameAppended {
                        instance_id: 1,
                        attempt: 0,
                        frame: frame(0),
                    },
                )
                .unwrap();
            store
                .append(
                    0,
                    StoreEvent::RequestRequeued {
                        instance_id: 1,
                        attempt: 1,
                    },
                )
                .unwrap();
            for c in 0..2 {
                store
                    .append(
                        0,
                        StoreEvent::FrameAppended {
                            instance_id: 1,
                            attempt: 1,
                            frame: frame(c),
                        },
                    )
                    .unwrap();
            }
            store
                .append(
                    0,
                    StoreEvent::InstanceSealed {
                        instance_id: 1,
                        attempt: 1,
                        outcome: SealOutcome::Completed,
                    },
                )
                .unwrap();
            // Pending instance on the other lane.
            store
                .append(
                    1,
                    StoreEvent::RequestAccepted {
                        request: request(2),
                    },
                )
                .unwrap();
            store.sync().unwrap();
        }
        let before = fetch_journal(&dir, 1).unwrap();
        let report = compact(&dir).unwrap();
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.frames_dropped, 1, "attempt-0 frame dropped");
        assert!(report.bytes_after < report.bytes_before);
        let after = fetch_journal(&dir, 1).unwrap();
        assert_eq!(
            before.to_json(),
            after.to_json(),
            "compaction preserves sealed tapes byte-for-byte"
        );
        let store = EventStore::open(&dir).unwrap();
        assert_eq!(store.recovered().pending.len(), 1);
        assert_eq!(store.recovered().pending[0].request.instance_id, 2);
        assert_eq!(store.recovered().sealed.len(), 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_refuses_open_until_restored() {
        let dir = tmp_dir("compact-crash");
        {
            let store = EventStore::open(&dir).unwrap();
            store
                .append(
                    0,
                    StoreEvent::RequestAccepted {
                        request: request(1),
                    },
                )
                .unwrap();
            store
                .append(
                    0,
                    StoreEvent::InstanceSealed {
                        instance_id: 1,
                        attempt: 0,
                        outcome: SealOutcome::Completed,
                    },
                )
                .unwrap();
            store.sync().unwrap();
        }
        // Simulate a crash in compact()'s swap window: every original
        // stashed away, replacement not yet installed. The scanner
        // would otherwise see an empty store and "succeed".
        let seg = recover::segment_files(&dir).unwrap().pop().unwrap().path;
        let bak = seg.with_extension("seg.bak");
        std::fs::rename(&seg, &bak).unwrap();
        std::fs::write(dir.join("compact.tmp"), b"partial").unwrap();
        match EventStore::open(&dir) {
            Err(StoreError::Corrupt(detail)) => {
                assert!(detail.contains("interrupted compaction"), "{detail}");
                assert!(detail.contains("compact.tmp"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let report = fsck(&dir).unwrap();
        assert!(!report.ok(), "fsck must flag the debris");
        assert!(compact(&dir).is_err(), "compact must refuse the debris");
        // The documented manual restore brings the store back intact.
        std::fs::rename(&bak, &seg).unwrap();
        std::fs::remove_file(dir.join("compact.tmp")).unwrap();
        let store = EventStore::open(&dir).unwrap();
        assert_eq!(store.recovered().sealed.len(), 1);
        assert_eq!(store.recovered().next_instance_id, 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
