//! A blocking client for the `dp-serve` protocol: one connection, many
//! requests, frames surfaced as they arrive.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use dp_telemetry::json::JsonValue;

use crate::protocol::{
    CacheStatus, CircuitSpec, Frame, PointParams, Request, SweepParams, MAX_REQUEST_BYTES,
};

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// What a finished sweep request reports back, beyond the streamed records.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// `"hit"` or `"miss"` — the server's snapshot-cache disposition.
    pub cache: String,
    /// The sweep's merged unique-table probes (thaw-only on a `hit`).
    pub unique_lookups: u64,
    /// Probes resolved by the frozen snapshot base.
    pub base_hits: u64,
    /// Per-fault records streamed.
    pub records: u64,
    /// Faults lost to class panics (absent from the stream).
    pub skipped: u64,
    /// The schema-v2 report object (`stream` section included), ready to
    /// wrap in a `reports` array for `diffprop validate-report`.
    pub report: JsonValue,
}

impl SweepOutcome {
    /// Equivalence classes analysed, from the report's invariant section.
    pub fn classes(&self) -> u64 {
        self.report
            .get("result")
            .and_then(|r| r.get("classes"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    }

    /// Workers the server used, from the report's execution section.
    pub fn workers(&self) -> u64 {
        self.report
            .get("execution")
            .and_then(|e| e.get("shards"))
            .and_then(JsonValue::as_arr)
            .map(|s| s.len() as u64)
            .unwrap_or(0)
    }

    /// Wraps the report object in a schema-versioned document, as
    /// `diffprop validate-report` and the CI smoke job expect on disk.
    pub fn report_document(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "schema_version",
                JsonValue::Int(dp_telemetry::SCHEMA_VERSION as i128),
            ),
            ("tool", JsonValue::Str("dp-serve".into())),
            ("reports", JsonValue::Arr(vec![self.report.clone()])),
        ])
    }
}

/// A connected client. Requests run strictly in sequence on the one
/// connection; open a second client for concurrency.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small writes answered by the server; Nagle's
        // algorithm would only delay them.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request line. A line over [`MAX_REQUEST_BYTES`] is refused
    /// with [`io::ErrorKind::InvalidInput`] before anything is written: the
    /// server would answer it with an error and close the connection, and
    /// JSON escaping can push a `.bench` source under the limit over it.
    fn request(&mut self, request: &Request) -> io::Result<()> {
        let line = request.to_line();
        if line.len() > MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "request line is {} bytes, over MAX_REQUEST_BYTES ({MAX_REQUEST_BYTES} bytes)",
                    line.len()
                ),
            ));
        }
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    fn next_frame(&mut self) -> io::Result<Frame> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(proto_err("server closed the connection mid-response"));
        }
        Frame::from_line(line.trim_end_matches(['\r', '\n'])).map_err(|e| proto_err(e.to_string()))
    }

    /// Runs a streamed sweep, invoking `on_record` for every record frame
    /// in input-fault order as it arrives.
    pub fn sweep(
        &mut self,
        circuit: CircuitSpec,
        params: SweepParams,
        mut on_record: impl FnMut(usize, &str),
    ) -> io::Result<SweepOutcome> {
        self.request(&Request::Sweep { circuit, params })?;
        let mut records: u64 = 0;
        loop {
            match self.next_frame()? {
                Frame::Record { index, line } => {
                    on_record(index, &line);
                    records += 1;
                }
                Frame::Done {
                    cache,
                    unique_lookups,
                    base_hits,
                    report,
                } => {
                    let skipped = report
                        .get("stream")
                        .and_then(|s| s.get("skipped"))
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0);
                    return Ok(SweepOutcome {
                        cache,
                        unique_lookups,
                        base_hits,
                        records,
                        skipped,
                        report,
                    });
                }
                Frame::Error { message } => return Err(proto_err(message)),
                other => return Err(proto_err(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Runs a single-fault point query (`detectability` or `adherence`)
    /// and returns the value object.
    pub fn point(
        &mut self,
        adherence: bool,
        circuit: CircuitSpec,
        point: PointParams,
    ) -> io::Result<JsonValue> {
        self.request(&if adherence {
            Request::Adherence { circuit, point }
        } else {
            Request::Detectability { circuit, point }
        })?;
        match self.next_frame()? {
            Frame::Value(fields) => Ok(fields),
            Frame::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected frame {other:?}"))),
        }
    }

    /// Fetches the snapshot-cache counters.
    pub fn status(&mut self) -> io::Result<CacheStatus> {
        self.request(&Request::Status)?;
        match self.next_frame()? {
            Frame::Status(status) => Ok(status),
            Frame::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected frame {other:?}"))),
        }
    }

    /// Asks the server to stop; returns once it acknowledges.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request(&Request::Shutdown)?;
        match self.next_frame()? {
            Frame::Bye => Ok(()),
            Frame::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected frame {other:?}"))),
        }
    }
}
