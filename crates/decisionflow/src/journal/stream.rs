//! The streaming journal wire format: JSON-lines frames between a
//! header and a trailing footer.
//!
//! The in-memory [`Journal`] is a single canonical-JSON document —
//! fine for short instances, but a long-running capture would buffer
//! every frame until completion. The stream format lets a writer
//! flush each frame to an [`io::Write`] sink the moment it is
//! recorded, holding O(1) frames in memory:
//!
//! ```text
//! {"version":1,"strategy":"PSE100","disable_backward":false,...}   header
//! {"clock":0,"event":{...}}                                        frame 0
//! {"clock":1,"event":{...}}                                        frame 1
//! ...
//! {"frames":N,"time":T}                                            footer
//! ```
//!
//! Every line is one canonical-JSON document (the serializer escapes
//! all control characters, so frames never span lines). The footer
//! doubles as a completeness marker: a crashed or still-running
//! capture has no footer, and [`read_journal`] reports a truncated
//! stream instead of silently yielding a partial journal.
//!
//! [`read_journal`] reconstructs a [`Journal`] that is **equal to the
//! in-memory capture** — and therefore serializes via
//! [`Journal::to_json`] to the identical bytes. The corpus tooling
//! (`dflow-corpus`) stores every baseline in this format.

use std::io::{self, BufRead, Write};

use serde::{Deserialize, Serialize};

use crate::journal::frame::Frame;
use crate::journal::{Journal, JournalError, SCHEMA_VERSION};
use crate::value::Value;

/// First line of a journal stream: everything [`Journal`] knows
/// before the first frame is recorded.
#[derive(Serialize, Deserialize)]
struct StreamHeader {
    version: u32,
    strategy: String,
    disable_backward: bool,
    schema_fingerprint: u64,
    sources: Vec<(String, Value)>,
}

/// Last line of a journal stream: the frame count (truncation check)
/// and the driver-reported response time.
#[derive(Serialize, Deserialize)]
struct StreamFooter {
    frames: u64,
    time: u64,
}

/// Write the header line.
pub(crate) fn write_header(
    w: &mut dyn Write,
    strategy: &str,
    disable_backward: bool,
    schema_fingerprint: u64,
    sources: &[(String, Value)],
) -> io::Result<()> {
    let header = StreamHeader {
        version: SCHEMA_VERSION,
        strategy: strategy.to_string(),
        disable_backward,
        schema_fingerprint,
        sources: sources.to_vec(),
    };
    writeln!(w, "{}", serde::json::to_string(&header))
}

/// Write one frame line.
pub(crate) fn write_frame(w: &mut dyn Write, frame: &Frame) -> io::Result<()> {
    writeln!(w, "{}", serde::json::to_string(frame))
}

/// Write the footer line.
pub(crate) fn write_footer(w: &mut dyn Write, frames: u64, time: u64) -> io::Result<()> {
    writeln!(
        w,
        "{}",
        serde::json::to_string(&StreamFooter { frames, time })
    )
}

impl Journal {
    /// Write this journal in the streaming wire format. Useful for
    /// converting a buffered capture (e.g. a server-side
    /// [`InstanceResult::journal`]) into the corpus/storage format;
    /// live captures stream directly via
    /// [`Request::stream_journal`](crate::api::Request::stream_journal).
    ///
    /// [`InstanceResult::journal`]: crate::server::InstanceResult::journal
    pub fn write_stream(&self, w: &mut dyn Write) -> io::Result<()> {
        write_header(
            w,
            &self.strategy,
            self.disable_backward,
            self.schema_fingerprint,
            &self.sources,
        )?;
        for frame in &self.frames {
            write_frame(w, frame)?;
        }
        write_footer(w, self.frames.len() as u64, self.time)
    }
}

/// A cloneable in-memory sink for [`Request::stream_journal`]: every
/// clone appends to the same shared buffer, so one handle goes into
/// the request while another reads the captured bytes back. Useful
/// for tests and for callers that want the stream format without a
/// file.
///
/// [`Request::stream_journal`]: crate::api::Request::stream_journal
#[derive(Clone, Debug, Default)]
pub struct MemorySink(std::sync::Arc<parking_lot::Mutex<Vec<u8>>>);

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copy of everything written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().clone()
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn malformed(detail: impl std::fmt::Display) -> JournalError {
    JournalError::Malformed(detail.to_string())
}

/// Read a journal back from its streaming wire format.
///
/// The schema-version check runs on the header before anything else
/// is interpreted, exactly like [`Journal::from_json`]. A stream with
/// no footer, a footer frame count disagreeing with the frames
/// actually present, or any content after the footer is rejected as
/// malformed — a truncated capture can never masquerade as a complete
/// flight record. Truncation errors carry the **byte offset and line
/// number** of the torn point, so recovery triage can seek straight
/// to it instead of re-scanning the tape.
pub fn read_journal<R: BufRead>(mut reader: R) -> Result<Journal, JournalError> {
    // Read lines by hand so every record's byte offset is known: the
    // `lines()` iterator strips the terminators that position error
    // messages need.
    fn next_line<R: BufRead>(
        reader: &mut R,
        buf: &mut String,
        offset: &mut u64,
        lineno: &mut u64,
    ) -> io::Result<Option<()>> {
        *offset += buf.len() as u64;
        buf.clear();
        if reader.read_line(buf)? == 0 {
            return Ok(None);
        }
        *lineno += 1;
        Ok(Some(()))
    }
    let mut offset: u64 = 0; // byte offset of the line in `buf`
    let mut lineno: u64 = 0; // 1-based line number of the line in `buf`
    let mut buf = String::new();

    let header_line = loop {
        match next_line(&mut reader, &mut buf, &mut offset, &mut lineno) {
            Err(e) => return Err(malformed(format!("stream read failed: {e}"))),
            Ok(None) => return Err(malformed("empty journal stream")),
            Ok(Some(())) if buf.trim().is_empty() => continue,
            Ok(Some(())) => break buf.trim_end_matches(['\n', '\r']).to_string(),
        }
    };
    let content =
        serde::json::parse(&header_line).map_err(|e| malformed(format!("bad header line: {e}")))?;
    let version = content
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "version"))
        .and_then(|(_, v)| v.as_u64())
        .ok_or_else(|| malformed("header missing version field"))?;
    let version = u32::try_from(version).map_err(|_| malformed("header version out of range"))?;
    if version != SCHEMA_VERSION {
        return Err(JournalError::Version {
            found: version,
            supported: SCHEMA_VERSION,
        });
    }
    let header = StreamHeader::from_content(&content)
        .map_err(|e| malformed(format!("bad header line: {e}")))?;

    let mut frames: Vec<Frame> = Vec::new();
    let mut footer: Option<StreamFooter> = None;
    // Position of the last record line seen: where the tape tore when
    // the footer turns out to be missing.
    let mut last_record: (u64, u64) = (0, 1);
    loop {
        match next_line(&mut reader, &mut buf, &mut offset, &mut lineno) {
            Err(e) => return Err(malformed(format!("stream read failed: {e}"))),
            Ok(None) => break,
            Ok(Some(())) => {}
        }
        let (line_offset, line_no) = (offset, lineno);
        let line = buf.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        if footer.is_some() {
            return Err(malformed(format!(
                "content after footer at byte {line_offset}, line {line_no}"
            )));
        }
        last_record = (line_offset, line_no);
        let content = serde::json::parse(line)
            .map_err(|e| malformed(format!("bad line {line_no} (byte {line_offset}): {e}")))?;
        let map = content.as_map().ok_or_else(|| {
            malformed(format!(
                "line {line_no} (byte {line_offset}) is not an object"
            ))
        })?;
        if map.iter().any(|(k, _)| k == "event") {
            let frame = Frame::from_content(&content).map_err(|e| {
                malformed(format!(
                    "bad frame at line {line_no} (byte {line_offset}): {e}"
                ))
            })?;
            frames.push(frame);
        } else {
            let f = StreamFooter::from_content(&content).map_err(|e| {
                malformed(format!(
                    "bad footer at line {line_no} (byte {line_offset}): {e}"
                ))
            })?;
            footer = Some(f);
        }
    }
    let end = offset + buf.len() as u64;
    let footer = footer.ok_or_else(|| {
        malformed(format!(
            "missing footer (capture still running, or truncated stream): tape ends at \
             byte {end} after {lineno} line(s); last record at byte {}, line {}",
            last_record.0, last_record.1
        ))
    })?;
    if footer.frames != frames.len() as u64 {
        return Err(malformed(format!(
            "footer claims {} frames but stream holds {} (truncated stream): \
             footer at byte {}, line {}",
            footer.frames,
            frames.len(),
            last_record.0,
            last_record.1
        )));
    }
    Ok(Journal {
        version: header.version,
        strategy: header.strategy,
        disable_backward: header.disable_backward,
        schema_fingerprint: header.schema_fingerprint,
        sources: header.sources,
        time: footer.time,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::Arc;

    use super::*;
    use crate::api::Request;
    use crate::expr::{CmpOp, Expr};
    use crate::journal::{JournalWriter, Outputs};
    use crate::schema::{Schema, SchemaBuilder};
    use crate::snapshot::SourceValues;
    use crate::store::SealOutcome;
    use crate::task::Task;

    /// A sink that fails after `ok_writes` successful writes.
    struct FlakySink {
        ok_writes: usize,
    }

    impl Write for FlakySink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("sink full"));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn fixture() -> (Arc<Schema>, SourceValues) {
        let mut b = SchemaBuilder::new();
        let s = b.source("income");
        let gate = b.attr(
            "gate",
            Task::const_query(10, 1i64),
            vec![],
            Expr::cmp_const(s, CmpOp::Gt, 0i64),
        );
        let t = b.attr(
            "t",
            Task::const_query(3, "page"),
            vec![],
            Expr::Truthy(gate),
        );
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 500i64);
        (schema, sv)
    }

    fn run_both(schema: &Arc<Schema>, sv: &SourceValues, strategy: &str) -> (Journal, Vec<u8>) {
        let strategy: crate::engine::Strategy = strategy.parse().unwrap();
        let buffered = Request::with_schema(Arc::clone(schema))
            .sources(sv.clone())
            .strategy(strategy)
            .record_journal(true)
            .run()
            .unwrap()
            .journal
            .expect("buffered journal");
        let buf = MemorySink::new();
        let report = Request::with_schema(Arc::clone(schema))
            .sources(sv.clone())
            .strategy(strategy)
            .stream_journal(buf.clone())
            .run()
            .unwrap();
        assert!(
            report.journal.is_none(),
            "streamed journal lives on the sink"
        );
        (buffered, buf.bytes())
    }

    #[test]
    fn stream_roundtrips_byte_identical_to_buffered_capture() {
        let (schema, sv) = fixture();
        for strategy in ["PCE0", "PSE100", "NCE50"] {
            let (buffered, bytes) = run_both(&schema, &sv, strategy);
            let streamed = read_journal(&bytes[..]).expect("sealed stream parses");
            assert_eq!(streamed, buffered, "{strategy}");
            assert_eq!(
                streamed.to_json(),
                buffered.to_json(),
                "{strategy}: canonical JSON must match byte-for-byte"
            );
        }
    }

    #[test]
    fn write_stream_of_buffered_journal_equals_live_stream() {
        let (schema, sv) = fixture();
        let (buffered, bytes) = run_both(&schema, &sv, "PSE100");
        let mut rewritten = Vec::new();
        buffered.write_stream(&mut rewritten).unwrap();
        assert_eq!(rewritten, bytes, "both stream producers agree on bytes");
    }

    #[test]
    fn streaming_writer_buffers_no_frames() {
        let (schema, sv) = fixture();
        let buf = MemorySink::new();
        let mut w = JournalWriter::with_outputs(
            &schema,
            "PSE100".parse().unwrap(),
            &sv,
            false,
            Outputs {
                tape: Some(Box::new(buf.clone())),
                ..Outputs::default()
            },
        );
        for i in 0..100u64 {
            w.record(crate::journal::Event::Launch {
                attr: crate::schema::AttrId::from_index(0),
                cost: i,
            });
            assert!(w.frames().is_empty(), "the tape output must not buffer");
        }
        let sealed = w.seal(7, SealOutcome::Completed);
        assert!(sealed.journal.is_none() && sealed.tape_error.is_none());
        let journal = read_journal(&buf.bytes()[..]).unwrap();
        assert_eq!(journal.frames.len(), 100);
        assert_eq!(journal.time, 7);
    }

    #[test]
    fn unsealed_or_truncated_stream_is_rejected() {
        let (schema, sv) = fixture();
        let (_, bytes) = run_both(&schema, &sv, "PSE100");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "header + frames + footer");

        // No footer: the capture never sealed.
        let unsealed = lines[..lines.len() - 1].join("\n");
        assert!(matches!(
            read_journal(unsealed.as_bytes()),
            Err(JournalError::Malformed(m)) if m.contains("footer")
        ));

        // Footer present but frames missing: count mismatch.
        let mut dropped: Vec<&str> = lines.clone();
        dropped.remove(1);
        let dropped = dropped.join("\n");
        assert!(matches!(
            read_journal(dropped.as_bytes()),
            Err(JournalError::Malformed(m)) if m.contains("truncated")
        ));

        // Content after the footer is as suspicious as a missing one.
        let mut trailing = lines.clone();
        trailing.push(lines[1]);
        let trailing = trailing.join("\n");
        assert!(matches!(
            read_journal(trailing.as_bytes()),
            Err(JournalError::Malformed(m)) if m.contains("after footer")
        ));

        // Empty input.
        assert!(matches!(
            read_journal(&b""[..]),
            Err(JournalError::Malformed(_))
        ));
    }

    #[test]
    fn version_check_runs_before_anything_else() {
        let (schema, sv) = fixture();
        let (buffered, _) = run_both(&schema, &sv, "PCE0");
        let mut tampered = buffered;
        tampered.version = SCHEMA_VERSION + 9;
        let mut bytes = Vec::new();
        tampered.write_stream(&mut bytes).unwrap();
        // write_stream emits whatever version the journal carries; the
        // reader must refuse it up front.
        let text = String::from_utf8(bytes).unwrap();
        let text = text.replacen(
            &format!("\"version\":{SCHEMA_VERSION}"),
            &format!("\"version\":{}", SCHEMA_VERSION + 9),
            1,
        );
        assert!(matches!(
            read_journal(text.as_bytes()),
            Err(JournalError::Version { found, supported })
                if found == SCHEMA_VERSION + 9 && supported == SCHEMA_VERSION
        ));
    }

    #[test]
    fn empty_instance_stream_has_header_and_footer_only() {
        // Target disabled at init: zero frames, but the stream is
        // still a complete, sealed tape.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = b.attr(
            "t",
            Task::const_query(5, 1i64),
            vec![],
            Expr::cmp_const(s, CmpOp::Gt, 10i64),
        );
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 3i64);
        let buf = MemorySink::new();
        Request::with_schema(Arc::clone(&schema))
            .sources(sv)
            .strategy("PCE100".parse().unwrap())
            .stream_journal(buf.clone())
            .run()
            .unwrap();
        let bytes = buf.bytes();
        let journal = read_journal(&bytes[..]).unwrap();
        assert!(journal.frames.iter().all(|f| !f.event.is_driver_event()));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.lines().count() >= 2, "header + footer always present");
    }

    #[test]
    fn sink_errors_surface_at_finish_not_on_the_hot_path() {
        let (schema, sv) = fixture();
        // One successful write (the header), then the sink dies; the
        // recording itself must not panic, the seal reports the error,
        // and the memory output beside the dead tape is undisturbed.
        let mut w = JournalWriter::with_outputs(
            &schema,
            "PSE100".parse().unwrap(),
            &sv,
            false,
            Outputs {
                memory: true,
                tape: Some(Box::new(FlakySink { ok_writes: 1 })),
                wal: None,
            },
        );
        for _ in 0..5 {
            w.record(crate::journal::Event::Unneeded {
                attr: crate::schema::AttrId::from_index(0),
            });
        }
        let sealed = w.seal(0, SealOutcome::Completed);
        let err = sealed.tape_error.expect("the latched sink error");
        assert!(err.to_string().contains("sink full"));
        let clocks: Vec<u64> = sealed
            .journal
            .unwrap()
            .frames
            .iter()
            .map(|f| f.clock)
            .collect();
        assert_eq!(clocks, [0, 1, 2, 3, 4], "memory output is complete");

        // And through the request API the run fails with JournalIo.
        let err = Request::with_schema(Arc::clone(&schema))
            .sources(sv.clone())
            .strategy("PSE100".parse().unwrap())
            .stream_journal(FlakySink { ok_writes: 0 })
            .run()
            .unwrap_err();
        assert!(matches!(err, crate::engine::ExecError::JournalIo(_)));

        // A request rejected before execution (missing sources) keeps
        // its one-shot sink, so the corrected request records.
        let buf = MemorySink::new();
        let rejected = Request::with_schema(Arc::clone(&schema))
            .strategy("PSE100".parse().unwrap())
            .stream_journal(buf.clone());
        assert!(matches!(
            rejected.run().unwrap_err(),
            crate::engine::ExecError::Snapshot(_)
        ));
        rejected.sources(sv).run().expect("sink preserved");
        assert!(read_journal(&buf.bytes()[..]).is_ok());
    }
}
