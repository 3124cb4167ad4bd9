//! Output encoding: JSON lines with field-group filtering.
//!
//! Two serialization paths produce byte-identical lines:
//!
//! * [`to_line`] — the reference form: copies the output's `data` and
//!   `trace` into a full line tree ([`ModuleOutput::to_json`]), prunes
//!   that tree to the group ([`shape`]; `short` copies the answers a
//!   second time) and renders it into a fresh `String`. It is the oracle
//!   [`write_line`] is tested against and fine for one-off callers;
//!   nothing on a scan's path calls it.
//! * [`write_line`] — the scan-pipeline hot path: writes `data` in place
//!   ([`Data::write`](zdns_modules::Data::write)), only the members the
//!   group keeps, straight into a caller-owned reusable buffer, touching
//!   the allocator zero times per line once the buffer has grown to its
//!   high-water mark. A raw module's `data` is its lookup result, whose
//!   records are written here for the first time (no tree of them is
//!   ever built), without the `flags` and `additionals` that `short` and
//!   `normal` drop ([`Conf::parse`](crate::conf::Conf::parse) sets the
//!   resolver's detail from the group); a module's own tree is written by
//!   [`write_value`]. The trace is read under the `trace` group only —
//!   the one group for which a scan records one at all.
//!
//! The [`OutputSink`] trait is the streaming consumer side: the scan
//! pipeline hands every [`ModuleOutput`] to one sink ([`JsonlSink`] for
//! JSONL files/stdout, [`CallbackSink`] for in-process consumers), which
//! its workers write under one lock — a sink that cannot keep up stalls
//! the worker writing to it, which throttles admission instead of
//! ballooning memory.

use std::io::Write as IoWrite;

use serde_json::{write_escaped, write_value, Value};
use zdns_modules::ModuleOutput;

use crate::conf::OutputGroup;

/// Shape a module output according to the selected field group.
pub fn shape(output: &ModuleOutput, group: OutputGroup) -> Value {
    let mut v = output.to_json();
    match group {
        OutputGroup::Short => {
            // Name + status (+ bare answers when present).
            let answers = v["data"].get("answers").cloned();
            let mut short = serde_json::json!({
                "name": v["name"],
                "status": v["status"],
            });
            if let Some(a) = answers {
                short["data"] = serde_json::json!({ "answers": a });
            }
            short
        }
        OutputGroup::Normal => {
            if let Some(obj) = v.as_object_mut() {
                obj.remove("trace");
                if let Some(data) = obj.get_mut("data").and_then(Value::as_object_mut) {
                    data.remove("additionals");
                    data.remove("flags");
                }
            }
            v
        }
        OutputGroup::Long => {
            if let Some(obj) = v.as_object_mut() {
                obj.remove("trace");
            }
            v
        }
        OutputGroup::Trace => v,
    }
}

/// Serialize one output line.
pub fn to_line(output: &ModuleOutput, group: OutputGroup) -> String {
    shape(output, group).to_string()
}

/// Shape and serialize one output straight into `buf` (cleared first),
/// producing exactly the bytes [`to_line`] would — without building a
/// shaped [`Value`] tree or a per-line `String`. This is what the
/// streaming sink runs per output, so a warmed buffer makes the
/// serialization side of the pipeline allocation-free.
pub fn write_line(output: &ModuleOutput, group: OutputGroup, buf: &mut String) {
    buf.clear();
    match group {
        OutputGroup::Short => {
            buf.push_str("{\"name\":");
            let _ = write_escaped(&output.name, buf);
            buf.push_str(",\"status\":");
            let _ = write_escaped(output.status.as_str(), buf);
            output.data.write_answers(buf);
            buf.push('}');
        }
        OutputGroup::Normal => write_full(output, buf, true, false),
        OutputGroup::Long => write_full(output, buf, false, false),
        OutputGroup::Trace => write_full(output, buf, false, true),
    }
}

/// The full output shape (`name`/`class`/`status`/`module`/`data`),
/// optionally dropping the noisy `data` members and appending the trace.
fn write_full(output: &ModuleOutput, buf: &mut String, drop_noise: bool, include_trace: bool) {
    buf.push_str("{\"name\":");
    let _ = write_escaped(&output.name, buf);
    buf.push_str(",\"class\":\"IN\",\"status\":");
    let _ = write_escaped(output.status.as_str(), buf);
    buf.push_str(",\"module\":");
    let _ = write_escaped(output.module, buf);
    buf.push_str(",\"data\":");
    output.data.write(drop_noise, buf);
    if include_trace && !output.trace.is_empty() {
        buf.push_str(",\"trace\":[");
        for (i, step) in output.trace.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write_value(step, buf);
        }
        buf.push(']');
    }
    buf.push('}');
}

/// The streaming consumer side of a scan: one sink receives every
/// [`ModuleOutput`] the scan produces, written by the scan's workers one
/// at a time under one lock (a slow sink therefore stalls them, which
/// throttles admission rather than growing an unbounded backlog).
pub trait OutputSink: Send {
    /// Consume one output.
    fn write_output(&mut self, output: ModuleOutput) -> std::io::Result<()>;

    /// Flush anything buffered (end of scan).
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Outputs consumed so far.
    fn outputs_written(&self) -> u64;
}

/// JSON-lines sink over any writer: shapes and serializes each output
/// into one reusable buffer ([`write_line`]), then writes buffer +
/// newline — no per-line `Value` clone, no per-line `String`.
pub struct JsonlSink<W: IoWrite + Send> {
    writer: W,
    group: OutputGroup,
    buf: String,
    written: u64,
}

impl<W: IoWrite + Send> JsonlSink<W> {
    /// A sink rendering `group`-shaped lines into `writer`.
    pub fn new(writer: W, group: OutputGroup) -> JsonlSink<W> {
        JsonlSink {
            writer,
            group,
            buf: String::new(),
            written: 0,
        }
    }

    /// Unwrap the writer (tests inspect what was written).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: IoWrite + Send> OutputSink for JsonlSink<W> {
    fn write_output(&mut self, output: ModuleOutput) -> std::io::Result<()> {
        write_line(&output, self.group, &mut self.buf);
        self.buf.push('\n');
        self.writer.write_all(self.buf.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    fn outputs_written(&self) -> u64 {
        self.written
    }
}

/// Adapter running a closure per output — how the pre-pipeline
/// `on_output` callback surface plugs into the sink-shaped pipeline.
pub struct CallbackSink<F: FnMut(ModuleOutput) + Send> {
    callback: F,
    written: u64,
}

impl<F: FnMut(ModuleOutput) + Send> CallbackSink<F> {
    /// Wrap `callback` as a sink.
    pub fn new(callback: F) -> CallbackSink<F> {
        CallbackSink {
            callback,
            written: 0,
        }
    }
}

impl<F: FnMut(ModuleOutput) + Send> OutputSink for CallbackSink<F> {
    fn write_output(&mut self, output: ModuleOutput) -> std::io::Result<()> {
        (self.callback)(output);
        self.written += 1;
        Ok(())
    }

    fn outputs_written(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_core::Status;

    fn sample() -> ModuleOutput {
        ModuleOutput {
            name: "example.com".into(),
            module: "A",
            status: Status::NoError,
            data: serde_json::json!({
                "answers": [{"answer": "192.0.2.1", "type": "A"}],
                "additionals": [{"answer": "192.0.2.2", "type": "A"}],
                "flags": {"authoritative": true},
            })
            .into(),
            trace: vec![serde_json::json!({"depth": 1})],
        }
    }

    #[test]
    fn short_keeps_name_status_answers() {
        let v = shape(&sample(), OutputGroup::Short);
        assert_eq!(v["name"], "example.com");
        assert_eq!(v["status"], "NOERROR");
        assert!(v["data"]["answers"].is_array());
        assert!(v.get("module").is_none());
    }

    #[test]
    fn normal_drops_trace_and_noise() {
        let v = shape(&sample(), OutputGroup::Normal);
        assert!(v.get("trace").is_none());
        assert!(v["data"].get("additionals").is_none());
        assert!(v["data"].get("flags").is_none());
        assert!(v["data"]["answers"].is_array());
    }

    #[test]
    fn long_keeps_flags_but_not_trace() {
        let v = shape(&sample(), OutputGroup::Long);
        assert!(v.get("trace").is_none());
        assert!(v["data"]["flags"].is_object());
    }

    #[test]
    fn trace_keeps_everything() {
        let v = shape(&sample(), OutputGroup::Trace);
        assert!(v["trace"].is_array());
        let line = to_line(&sample(), OutputGroup::Trace);
        assert!(line.contains("\"depth\":1"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn write_line_matches_to_line_byte_for_byte() {
        let mut buf = String::new();
        let samples = [
            sample(),
            // Non-object data (bad input) and escapes in the name.
            ModuleOutput {
                name: "we\"ird\\name\n.test".into(),
                module: "A",
                status: Status::IllegalInput,
                data: serde_json::Value::Null.into(),
                trace: Vec::new(),
            },
        ];
        for output in &samples {
            for group in [
                OutputGroup::Short,
                OutputGroup::Normal,
                OutputGroup::Long,
                OutputGroup::Trace,
            ] {
                write_line(output, group, &mut buf);
                assert_eq!(buf, to_line(output, group), "{group:?}");
            }
        }
    }

    #[test]
    fn jsonl_sink_reuses_buffer_and_counts_lines() {
        let mut sink = JsonlSink::new(Vec::new(), OutputGroup::Normal);
        for _ in 0..3 {
            sink.write_output(sample()).unwrap();
        }
        assert_eq!(sink.outputs_written(), 3);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], to_line(&sample(), OutputGroup::Normal));
    }

    #[test]
    fn callback_sink_forwards_outputs() {
        let seen = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s2 = std::sync::Arc::clone(&seen);
        let mut sink = CallbackSink::new(move |o: ModuleOutput| s2.lock().push(o.name));
        sink.write_output(sample()).unwrap();
        assert_eq!(sink.outputs_written(), 1);
        assert_eq!(seen.lock().as_slice(), ["example.com".to_string()]);
    }
}
