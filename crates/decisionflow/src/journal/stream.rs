//! The journal stream format: JSON-lines frames between a header and
//! a trailing footer — the form tapes are stored in.
//!
//! The in-memory [`Journal`] serializes to a single canonical-JSON
//! document ([`Journal::to_json`]); [`Journal::write_stream`] renders
//! the same journal one line per frame, which diffs, greps and
//! truncates legibly:
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
//! doubles as a completeness marker: a file cut short has no footer,
//! and [`read_journal`] reports a truncated stream instead of silently
//! yielding a partial journal.
//!
//! [`read_journal`] reconstructs a [`Journal`] **equal to the one
//! written** — and therefore serializing via [`Journal::to_json`] to
//! the identical bytes. The corpus tooling (`dflow-corpus`) stores
//! every baseline in this format, and `dflow-store replay --tape`
//! writes it from a journal rebuilt out of the WAL.

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

impl Journal {
    /// Write this journal in the stream format: header line, one line
    /// per frame, footer line. A tape file is
    /// `report.journal.unwrap().write_stream(&mut file)`.
    pub fn write_stream(&self, w: &mut dyn Write) -> io::Result<()> {
        let header = StreamHeader {
            version: SCHEMA_VERSION,
            strategy: self.strategy.clone(),
            disable_backward: self.disable_backward,
            schema_fingerprint: self.schema_fingerprint,
            sources: self.sources.clone(),
        };
        writeln!(w, "{}", serde::json::to_string(&header))?;
        for frame in &self.frames {
            writeln!(w, "{}", serde::json::to_string(frame))?;
        }
        let footer = StreamFooter {
            frames: self.frames.len() as u64,
            time: self.time,
        };
        writeln!(w, "{}", serde::json::to_string(&footer))
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
    use crate::schema::{Schema, SchemaBuilder};
    use crate::snapshot::SourceValues;
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

    /// One buffered capture and its stream rendering.
    fn captured(schema: &Arc<Schema>, sv: &SourceValues, strategy: &str) -> (Journal, Vec<u8>) {
        let journal = Request::with_schema(Arc::clone(schema))
            .sources(sv.clone())
            .strategy(strategy.parse().unwrap())
            .record_journal(true)
            .run()
            .unwrap()
            .journal
            .expect("buffered journal");
        let mut bytes = Vec::new();
        journal.write_stream(&mut bytes).unwrap();
        (journal, bytes)
    }

    #[test]
    fn stream_roundtrips_byte_identical_to_buffered_capture() {
        let (schema, sv) = fixture();
        for strategy in ["PCE0", "PSE100", "NCE50"] {
            let (buffered, bytes) = captured(&schema, &sv, strategy);
            let streamed = read_journal(&bytes[..]).expect("sealed stream parses");
            assert_eq!(streamed, buffered, "{strategy}");
            assert_eq!(
                streamed.to_json(),
                buffered.to_json(),
                "{strategy}: canonical JSON must match byte-for-byte"
            );
        }
    }

    /// The stream is what a recorder appending one line per event as
    /// it happened would have written: header, each frame's canonical
    /// JSON on its own line, footer with the count and the time.
    #[test]
    fn write_stream_of_buffered_journal_equals_live_stream() {
        let (schema, sv) = fixture();
        let (buffered, bytes) = captured(&schema, &sv, "PSE100");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), buffered.frames.len() + 2);
        assert!(text.ends_with('\n'), "every line is terminated");
        assert!(lines[0].starts_with(&format!("{{\"version\":{SCHEMA_VERSION},")));
        for (line, frame) in lines[1..].iter().zip(&buffered.frames) {
            assert_eq!(*line, serde::json::to_string(frame));
        }
        assert_eq!(
            *lines.last().unwrap(),
            format!(
                "{{\"frames\":{},\"time\":{}}}",
                buffered.frames.len(),
                buffered.time
            )
        );
    }

    #[test]
    fn unsealed_or_truncated_stream_is_rejected() {
        let (schema, sv) = fixture();
        let (_, bytes) = captured(&schema, &sv, "PSE100");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "header + frames + footer");

        // Cut after any line but the last: no footer, never a journal.
        for keep in 1..lines.len() {
            let cut = lines[..keep].join("\n");
            assert!(
                matches!(
                    read_journal(cut.as_bytes()),
                    Err(JournalError::Malformed(m)) if m.contains("footer")
                ),
                "cut after line {keep}"
            );
        }

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
        let (_, bytes) = captured(&schema, &sv, "PCE0");
        // A tape from another format version: the reader must refuse
        // it on the header, before it interprets anything else.
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
        // Target disabled at init: no driver events, but the stream is
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
        let (journal, bytes) = captured(&schema, &sv, "PCE100");
        assert!(journal.frames.iter().all(|f| !f.event.is_driver_event()));
        assert_eq!(read_journal(&bytes[..]).unwrap(), journal);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.lines().count() >= 2, "header + footer always present");

        // No frames at all: exactly the two lines.
        let bare = Journal {
            frames: Vec::new(),
            ..journal
        };
        let mut bytes = Vec::new();
        bare.write_stream(&mut bytes).unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);
        assert_eq!(read_journal(&bytes[..]).unwrap(), bare);
    }

    /// A run never touches a sink — the capture is in memory — so a
    /// sink can only fail when the finished journal is written to it,
    /// and then `write_stream` hands the error back.
    #[test]
    fn sink_errors_surface_at_finish_not_on_the_hot_path() {
        let (schema, sv) = fixture();
        let (journal, bytes) = captured(&schema, &sv, "PSE100");
        // The header goes out, then the sink dies.
        let err = journal
            .write_stream(&mut FlakySink { ok_writes: 1 })
            .unwrap_err();
        assert!(err.to_string().contains("sink full"));
        // The journal is undisturbed: a healthy sink gets every byte.
        let mut again = Vec::new();
        journal.write_stream(&mut again).unwrap();
        assert_eq!(again, bytes);
    }
}
