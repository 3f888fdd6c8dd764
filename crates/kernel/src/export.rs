//! Deterministic exporters: JSONL metrics dumps and Chrome trace-event
//! JSON.
//!
//! Everything here is hand-rolled string building (the build environment
//! has no serde), driven only by simulated time and iterated in fixed
//! orders, so two identical runs produce **byte-identical** output.
//!
//! * [`metrics_jsonl`] — one JSON object per line: a run header, one
//!   line per job, per named counter, per latency histogram (with
//!   p50/p95/p99), and per resource sample.
//! * [`chrome_trace_json`] — the recorded [`Trace`] plus sampler series
//!   as a Chrome trace-event file (`chrome://tracing` / Perfetto): `"X"`
//!   complete events for on-CPU spans (pid = SPU, tid = CPU), `"i"`
//!   instants for faults, I/O issues and policy runs, and `"C"` counter
//!   tracks from the per-SPU series.
//!
//! Each exporter is a private `write_*` core that streams its document
//! into one caller-owned `String` through [`std::fmt::Write`]; the
//! public `fn … -> String` functions are thin wrappers that hand it a
//! fresh buffer. Numbers and strings are written in place by the
//! private `Num` and `Esc` `Display` adapters (std `Display` for
//! numbers), so no line allocates per field. [`metrics_jsonl`] writes
//! its series, interference, SLO and request sections straight into its
//! own buffer, and [`chrome_trace_json`] writes every event into one
//! buffer behind a `",\n"` separator.
//!
//! The `slo_sample` lines come from the kernel's incremental SLO tally:
//! each sampling tick settles finished jobs once and visits only the
//! jobs not yet settled, so leaving SLO sampling on costs O(unsettled
//! jobs) per tick, not O(SPUs × jobs).

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use event_sim::{LogHistogram, SimTime};
use spu_core::{SpuId, SpuSet};

use crate::locks::LockId;
use crate::metrics::RunMetrics;
use crate::obsv::interference::{InterferenceReport, LockClass};
use crate::obsv::ObsvReport;
use crate::process::Pid;
use crate::trace::{Trace, TraceEvent};

/// Writes the string escaped for a JSON string literal (quotes not
/// included), in place.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every escaped character is ASCII, so a byte scan finds them
        // and the unescaped runs between them are whole UTF-8 slices.
        let s = self.0;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                b if b < 0x20 => {
                    f.write_str(&s[run..i])?;
                    write!(f, "\\u{b:04x}")?;
                    run = i + 1;
                    continue;
                }
                _ => continue,
            };
            f.write_str(&s[run..i])?;
            f.write_str(esc)?;
            run = i + 1;
        }
        f.write_str(&s[run..])
    }
}

/// Writes a JSON number token in place: std `Display` for finite
/// values, `null` otherwise.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// Runs a `write_*` core into a fresh buffer. The buffer grows by
/// amortized doubling: pre-sizing it from per-line estimates measured
/// no faster and raised the peak resident memory of a fully observed
/// run, since the estimates overshoot.
fn render(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    write(&mut out).expect("writing to a String cannot fail");
    out
}

/// Escapes a string for a JSON string literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    Esc(s).to_string()
}

/// A JSON number token for `x`; non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    Num(x).to_string()
}

/// A histogram's fields after the opening brace, closing brace included.
fn write_histogram_fields(out: &mut String, name: &str, h: &LogHistogram) -> fmt::Result {
    let pct = |p: f64| Num(h.percentile(p).unwrap_or(f64::NAN));
    write!(
        out,
        "\"name\":\"{}\",\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
        Esc(name),
        h.count(),
        Num(h.mean()),
        pct(50.0),
        pct(95.0),
        pct(99.0),
        Num(h.max()),
    )
}

/// One `{"name":…,"count":…,"mean":…,"p50":…,"p95":…,"p99":…,"max":…}`
/// object (no trailing newline) for a latency histogram, values in
/// seconds.
pub fn histogram_json(name: &str, h: &LogHistogram) -> String {
    render(|out| {
        out.push('{');
        write_histogram_fields(out, name, h)
    })
}

fn write_series(out: &mut String, report: &ObsvReport) -> fmt::Result {
    for s in &report.series {
        for p in &s.samples {
            writeln!(
                out,
                "{{\"type\":\"sample\",\"spu\":\"{}\",\"spu_index\":{},\"resource\":\"{}\",\
                 \"t_secs\":{},\"entitled\":{},\"allowed\":{},\"used\":{}}}",
                Esc(&s.spu_name),
                s.spu.index(),
                s.resource.as_str(),
                Num(p.at.as_secs_f64()),
                Num(p.entitled),
                Num(p.allowed),
                Num(p.used),
            )?;
        }
    }
    Ok(())
}

/// The per-SPU resource series as JSONL, one sample per line.
pub fn series_jsonl(report: &ObsvReport) -> String {
    render(|out| write_series(out, report))
}

fn write_counters(out: &mut String, report: &ObsvReport) -> fmt::Result {
    for (name, value) in report.counters.iter() {
        writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            Esc(name),
            value
        )?;
    }
    Ok(())
}

/// The counter registry as JSONL, one counter per line, in name order.
pub fn counters_jsonl(report: &ObsvReport) -> String {
    render(|out| write_counters(out, report))
}

/// The non-zero lock-hold entries of `r` as `(class, SPU index, nanos)`,
/// class-major.
fn lock_holds(r: &InterferenceReport) -> impl Iterator<Item = (LockClass, usize, u64)> + '_ {
    let n = r.matrix.spu_count();
    LockClass::ALL.into_iter().flat_map(move |class| {
        (0..n).filter_map(move |i| {
            let nanos = r
                .lock_hold_nanos
                .get(class.index() * n + i)
                .copied()
                .unwrap_or(0);
            (nanos > 0).then_some((class, i, nanos))
        })
    })
}

fn write_interference(out: &mut String, report: &ObsvReport) -> fmt::Result {
    let r = &report.interference;
    let name = |i: usize| r.spu_names.get(i).map(String::as_str).unwrap_or("?");
    for (ch, w, h, amount, events) in r.matrix.nonzero() {
        writeln!(
            out,
            "{{\"type\":\"interference\",\"channel\":\"{}\",\"unit\":\"{}\",\
             \"waiter\":\"{}\",\"waiter_index\":{},\"holder\":\"{}\",\"holder_index\":{},\
             \"amount\":{},\"events\":{}}}",
            ch.as_str(),
            ch.unit(),
            Esc(name(w)),
            w,
            Esc(name(h)),
            h,
            amount,
            events
        )?;
    }
    for (class, i, nanos) in lock_holds(r) {
        writeln!(
            out,
            "{{\"type\":\"lock_hold\",\"class\":\"{}\",\"spu\":\"{}\",\
             \"spu_index\":{},\"nanos\":{}}}",
            class.as_str(),
            Esc(name(i)),
            i,
            nanos
        )?;
    }
    Ok(())
}

/// The cross-SPU interference matrix as JSONL: one `interference` line
/// per non-zero cell (channel-major) and one `lock_hold` line per lock
/// class × SPU with non-zero hold time. Empty when attribution was
/// disabled, so exports stay byte-identical without it.
pub fn interference_jsonl(report: &ObsvReport) -> String {
    render(|out| write_interference(out, report))
}

fn write_slo(out: &mut String, report: &ObsvReport) -> fmt::Result {
    let r = &report.slo;
    for row in &r.per_spu {
        writeln!(
            out,
            "{{\"type\":\"slo\",\"spu\":\"{}\",\"spu_index\":{},\"target_secs\":{},\
             \"jobs\":{},\"met\":{},\"violated\":{},\"p50_secs\":{},\"p99_secs\":{},\
             \"p999_secs\":{},\"goodput_per_sec\":{},\"violation_frac\":{}}}",
            Esc(&row.name),
            row.spu.index(),
            Num(r.target.as_secs_f64()),
            row.jobs,
            row.met,
            row.violated,
            Num(row.p50),
            Num(row.p99),
            Num(row.p999),
            Num(row.goodput),
            Num(row.violation_frac)
        )?;
        for s in &row.samples {
            writeln!(
                out,
                "{{\"type\":\"slo_sample\",\"spu_index\":{},\"t_secs\":{},\
                 \"completed\":{},\"violated\":{}}}",
                row.spu.index(),
                Num(s.at.as_secs_f64()),
                s.completed,
                s.violated
            )?;
        }
    }
    Ok(())
}

/// The per-SPU SLO table as JSONL: one `slo` line per SPU that ran
/// tracked jobs, plus one `slo_sample` line per sampling instant. Empty
/// when the tracker was disabled or no jobs ran.
pub fn slo_jsonl(report: &ObsvReport) -> String {
    render(|out| write_slo(out, report))
}

fn write_requests(out: &mut String, report: &ObsvReport) -> fmt::Result {
    for r in &report.requests.per_spu {
        writeln!(
            out,
            "{{\"type\":\"requests\",\"spu\":\"{}\",\"spu_index\":{},\"arrivals\":{},\
             \"admitted\":{},\"shed\":{},\"expired\":{},\"timeouts\":{},\"retries\":{},\
             \"brownout_skips\":{},\"peak_queue\":{}}}",
            Esc(&r.name),
            r.spu.index(),
            r.arrivals,
            r.admitted,
            r.shed,
            r.expired,
            r.timeouts,
            r.retries,
            r.brownout_skips,
            r.peak_queue
        )?;
    }
    Ok(())
}

/// The per-SPU admission/shedding table as JSONL: one `requests` line
/// per SPU that saw request traffic. Empty when admission control was
/// off or no request ever arrived, so ordinary exports are untouched.
pub fn requests_jsonl(report: &ObsvReport) -> String {
    render(|out| write_requests(out, report))
}

/// Writes `items` through `each`, separated by `sep`.
fn write_joined<T>(
    out: &mut String,
    sep: &str,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        each(out, item)?;
    }
    Ok(())
}

fn write_interference_matrix(out: &mut String, r: &InterferenceReport) -> fmt::Result {
    out.push_str("{\"spus\":[");
    write_joined(out, ",", &r.spu_names, |out, n| {
        write!(out, "\"{}\"", Esc(n))
    })?;
    out.push_str("],\"cells\":[");
    write_joined(
        out,
        ",",
        r.matrix.nonzero(),
        |out, (ch, w, h, amount, events)| {
            write!(
                out,
                "{{\"channel\":\"{}\",\"unit\":\"{}\",\"waiter\":{},\"holder\":{},\
                 \"amount\":{},\"events\":{}}}",
                ch.as_str(),
                ch.unit(),
                w,
                h,
                amount,
                events
            )
        },
    )?;
    out.push_str("],\"lock_hold\":[");
    write_joined(out, ",", lock_holds(r), |out, (class, i, nanos)| {
        write!(
            out,
            "{{\"class\":\"{}\",\"spu\":{},\"nanos\":{}}}",
            class.as_str(),
            i,
            nanos
        )
    })?;
    out.push_str("]}\n");
    Ok(())
}

/// The interference matrix alone as one JSON document — the artifact a
/// CI run uploads from the lock-leakage experiment. Lists SPU names,
/// every non-zero cell, and the non-zero lock-hold entries.
pub fn interference_matrix_json(r: &InterferenceReport) -> String {
    render(|out| write_interference_matrix(out, r))
}

fn write_metrics(out: &mut String, m: &RunMetrics) -> fmt::Result {
    writeln!(
        out,
        "{{\"type\":\"run\",\"end_secs\":{},\"completed\":{},\"jobs\":{}}}",
        Num(m.end_time.as_secs_f64()),
        m.completed,
        m.jobs.len()
    )?;
    for j in &m.jobs {
        let resp = j.response().map_or(f64::NAN, |d| d.as_secs_f64());
        writeln!(
            out,
            "{{\"type\":\"job\",\"label\":\"{}\",\"spu\":{},\"started_secs\":{},\"response_secs\":{}}}",
            Esc(&j.label),
            j.spu.index(),
            Num(j.started.as_secs_f64()),
            Num(resp)
        )?;
    }
    write_counters(out, &m.obsv)?;
    for (name, h) in m.obsv.latency.named() {
        out.push_str("{\"type\":\"histogram\",");
        write_histogram_fields(out, name, h)?;
        out.push('\n');
    }
    write_series(out, &m.obsv)?;
    // Interference, SLO and request lines only appear when their
    // trackers were enabled, keeping ordinary output byte-identical.
    write_interference(out, &m.obsv)?;
    write_slo(out, &m.obsv)?;
    write_requests(out, &m.obsv)
}

/// A full run as JSONL: run header, jobs, counters, latency histograms,
/// then every resource sample.
pub fn metrics_jsonl(m: &RunMetrics) -> String {
    render(|out| write_metrics(out, m))
}

/// Microseconds of simulated time, the Chrome trace's time unit.
fn us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

/// An on-CPU span not yet closed: start, process, SPU, loaned flag.
type OpenSpan = (SimTime, Pid, SpuId, bool);

/// The Chrome trace's event array: writes the `",\n"` separator before
/// every event but the first.
struct Events<'a> {
    out: &'a mut String,
    first: bool,
}

impl Events<'_> {
    /// The buffer, positioned for the next event.
    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out
    }

    /// Closes the on-CPU span in `slot`, if any, at `end`.
    fn close_span(&mut self, slot: &mut Option<OpenSpan>, cpu: usize, end: SimTime) -> fmt::Result {
        let Some((start, pid, spu, loaned)) = slot.take() else {
            return Ok(());
        };
        write!(
            self.next(),
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"pid{}\",\"args\":{{\"loaned\":{}}}}}",
            spu.index(),
            cpu,
            Num(us(start)),
            Num(us(end) - us(start)),
            pid.0,
            loaned
        )
    }

    /// A lock-wait span from `start` to `end`; `holder` is `None` for a
    /// wait still open when the trace ends.
    fn lock_wait(
        &mut self,
        (start, spu, lock): (SimTime, SpuId, LockId),
        end: SimTime,
        pid: Pid,
        holder: Option<SpuId>,
    ) -> fmt::Result {
        let out = self.next();
        write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"lock-wait:{}\",\"args\":{{\"pid\":{},\"holder\":",
            spu.index(),
            1000 + pid.0,
            Num(us(start)),
            Num(us(end) - us(start)),
            LockClass::of(lock).as_str(),
            pid.0,
        )?;
        match holder {
            Some(h) => write!(out, "{}}}}}", h.index()),
            None => out.write_str("null}}"),
        }
    }
}

fn write_chrome_trace(
    out: &mut String,
    trace: &Trace,
    spus: &SpuSet,
    report: &ObsvReport,
) -> fmt::Result {
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut events = Events { out, first: true };
    // Process-name metadata, one per SPU.
    for id in spus.all_ids() {
        write!(
            events.next(),
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            id.index(),
            Esc(&spus.path(id))
        )?;
    }
    // On-CPU spans: Dispatch opens, Preempt/Block (or the next Dispatch
    // on the same CPU, or end-of-trace) closes.
    let mut open: Vec<Option<OpenSpan>> = Vec::new();
    let mut last_at = SimTime::ZERO;
    // Lock-wait spans: LockWait opens, LockGrant closes. Rendered on a
    // per-process lane (tid = 1000 + pid) under the waiter's SPU so
    // they never collide with the CPU rows.
    let mut lock_waits: BTreeMap<Pid, (SimTime, SpuId, LockId)> = BTreeMap::new();
    for ev in trace.iter() {
        last_at = last_at.max(ev.at());
        match *ev {
            TraceEvent::Dispatch {
                at,
                cpu,
                pid,
                spu,
                loaned,
            } => {
                if open.len() <= cpu {
                    open.resize(cpu + 1, None);
                }
                events.close_span(&mut open[cpu], cpu, at)?;
                open[cpu] = Some((at, pid, spu, loaned));
            }
            TraceEvent::Preempt { at, cpu, .. } => {
                if let Some(slot) = open.get_mut(cpu) {
                    events.close_span(slot, cpu, at)?;
                }
            }
            TraceEvent::Block { at, pid, .. } => {
                if let Some(cpu) = open
                    .iter()
                    .position(|slot| matches!(slot, Some((_, p, _, _)) if *p == pid))
                {
                    events.close_span(&mut open[cpu], cpu, at)?;
                }
            }
            TraceEvent::Fault { at, spu, major } => {
                write!(
                    events.next(),
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"ts\":{},\"s\":\"p\",\
                     \"name\":\"fault:{}\"}}",
                    spu.index(),
                    Num(us(at)),
                    if major { "major" } else { "minor" }
                )?;
            }
            TraceEvent::IoIssue {
                at,
                disk,
                stream,
                sectors,
            } => {
                write!(
                    events.next(),
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"ts\":{},\"s\":\"p\",\
                     \"name\":\"io:disk{}\",\"args\":{{\"sectors\":{}}}}}",
                    stream.index(),
                    Num(us(at)),
                    disk,
                    sectors
                )?;
            }
            TraceEvent::PolicyRun { at } => {
                write!(
                    events.next(),
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":{},\"s\":\"g\",\
                     \"name\":\"mem-policy\"}}",
                    Num(us(at))
                )?;
            }
            TraceEvent::FaultInjected { at, label } => {
                write!(
                    events.next(),
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":{},\"s\":\"g\",\
                     \"name\":\"fault:{}\"}}",
                    Num(us(at)),
                    label
                )?;
            }
            TraceEvent::LockWait { at, pid, spu, lock } => {
                lock_waits.insert(pid, (at, spu, lock));
            }
            TraceEvent::LockGrant {
                at, pid, holder, ..
            } => {
                if let Some(wait) = lock_waits.remove(&pid) {
                    events.lock_wait(wait, at, pid, Some(holder))?;
                }
            }
            TraceEvent::Wake { .. } => {}
        }
    }
    for (cpu, slot) in open.iter_mut().enumerate() {
        events.close_span(slot, cpu, last_at)?;
    }
    // Waits still open at trace end close there, holder unknown.
    for (pid, wait) in lock_waits {
        events.lock_wait(wait, last_at, pid, None)?;
    }
    // Counter tracks from the sampler series.
    for s in &report.series {
        for p in &s.samples {
            write!(
                events.next(),
                "{{\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"entitled\":{},\"allowed\":{},\"used\":{}}}}}",
                s.spu.index(),
                Num(us(p.at)),
                s.resource.as_str(),
                Num(p.entitled),
                Num(p.allowed),
                Num(p.used)
            )?;
        }
    }
    out.push_str("\n]}\n");
    Ok(())
}

/// Renders the trace and sampler series as a Chrome trace-event JSON
/// document (load in `chrome://tracing` or Perfetto).
///
/// Mapping: Chrome `pid` = SPU index (process names from `spus`),
/// `tid` = CPU number. On-CPU spans become `"X"` complete events; faults,
/// I/O issues and memory-policy runs become `"i"` instants; sampler
/// series become `"C"` counter tracks. Lock waits (recorded when
/// attribution is enabled) become `"X"` spans named
/// `lock-wait:<class>` on per-process lanes (`tid` = 1000 + pid) with
/// the granting holder's SPU index in `args`. Timestamps are
/// microseconds of simulated time.
pub fn chrome_trace_json(trace: &Trace, spus: &SpuSet, report: &ObsvReport) -> String {
    render(|out| write_chrome_trace(out, trace, spus, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obsv::{ResourceKind, ResourceSample, SampleSeries};
    use crate::process::Pid;
    use event_sim::SimTime;
    use spu_core::SpuId;

    /// A minimal JSON syntax checker: returns the rest of the input after
    /// one value, or panics with a location.
    fn skip_value(s: &[u8], mut i: usize) -> usize {
        fn skip_ws(s: &[u8], mut i: usize) -> usize {
            while i < s.len() && (s[i] as char).is_whitespace() {
                i += 1;
            }
            i
        }
        i = skip_ws(s, i);
        assert!(i < s.len(), "truncated JSON");
        match s[i] {
            b'{' => {
                i += 1;
                i = skip_ws(s, i);
                if s[i] == b'}' {
                    return i + 1;
                }
                loop {
                    i = skip_ws(s, i);
                    assert_eq!(s[i], b'"', "object key at {i}");
                    i = skip_value(s, i); // key string
                    i = skip_ws(s, i);
                    assert_eq!(s[i], b':', "colon at {i}");
                    i = skip_value(s, i + 1);
                    i = skip_ws(s, i);
                    match s[i] {
                        b',' => i += 1,
                        b'}' => return i + 1,
                        c => panic!("bad object separator {:?} at {i}", c as char),
                    }
                }
            }
            b'[' => {
                i += 1;
                i = skip_ws(s, i);
                if s[i] == b']' {
                    return i + 1;
                }
                loop {
                    i = skip_value(s, i);
                    i = skip_ws(s, i);
                    match s[i] {
                        b',' => i += 1,
                        b']' => return i + 1,
                        c => panic!("bad array separator {:?} at {i}", c as char),
                    }
                }
            }
            b'"' => {
                i += 1;
                while s[i] != b'"' {
                    if s[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i + 1
            }
            b't' => i + 4,
            b'f' => i + 5,
            b'n' => i + 4,
            _ => {
                while i < s.len() && matches!(s[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                i
            }
        }
    }

    fn assert_valid_json(doc: &str) {
        let bytes = doc.as_bytes();
        let end = skip_value(bytes, 0);
        assert!(
            doc[end..].trim().is_empty(),
            "trailing garbage after JSON value"
        );
    }

    fn sample_series() -> SampleSeries {
        let mut s = SampleSeries::new(SpuId::user(0), "user0", ResourceKind::Memory);
        s.push(ResourceSample {
            at: SimTime::from_millis(100),
            entitled: 10.0,
            allowed: 12.5,
            used: 11.0,
        });
        s
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn histogram_json_is_valid() {
        let mut h = LogHistogram::latency();
        h.add(0.001);
        h.add(0.01);
        let doc = histogram_json("response", &h);
        assert_valid_json(&doc);
        assert!(doc.contains("\"p95\":"));
    }

    #[test]
    fn empty_histogram_percentiles_are_null() {
        let h = LogHistogram::latency();
        let doc = histogram_json("empty", &h);
        assert_valid_json(&doc);
        assert!(doc.contains("\"p50\":null"));
    }

    #[test]
    fn jsonl_lines_are_each_valid() {
        let mut report = ObsvReport::default();
        report.counters.add("locks.acquires", 3);
        report.series.push(sample_series());
        let doc = format!("{}{}", counters_jsonl(&report), series_jsonl(&report));
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            assert_valid_json(line);
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_and_closes_spans() {
        let mut tr = Trace::new();
        tr.enable(100);
        let spu = SpuId::user(0);
        tr.push(TraceEvent::Dispatch {
            at: SimTime::from_millis(1),
            cpu: 0,
            pid: Pid(1),
            spu,
            loaned: false,
        });
        tr.push(TraceEvent::Preempt {
            at: SimTime::from_millis(5),
            cpu: 0,
            pid: Pid(1),
        });
        tr.push(TraceEvent::Dispatch {
            at: SimTime::from_millis(6),
            cpu: 1,
            pid: Pid(2),
            spu: SpuId::user(1),
            loaned: true,
        });
        tr.push(TraceEvent::Fault {
            at: SimTime::from_millis(7),
            spu,
            major: true,
        });
        let mut report = ObsvReport::default();
        report.series.push(sample_series());
        let doc = chrome_trace_json(&tr, &SpuSet::equal_users(2), &report);
        assert_valid_json(&doc);
        // Two X spans: the preempted one and the one closed at trace end.
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"dur\":4000")); // 4 ms in µs
        assert!(doc.contains("\"loaned\":true"));
        assert!(doc.contains("fault:major"));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("process_name"));
    }

    #[test]
    fn interference_and_slo_jsonl_are_empty_when_disabled() {
        let report = ObsvReport::default();
        assert_eq!(interference_jsonl(&report), "");
        assert_eq!(slo_jsonl(&report), "");
        assert_eq!(requests_jsonl(&report), "");
    }

    #[test]
    fn requests_jsonl_emits_rows() {
        use crate::obsv::SpuRequests;
        let mut report = ObsvReport::default();
        report.requests.per_spu.push(SpuRequests {
            spu: SpuId::user(1),
            name: "user1".into(),
            arrivals: 100,
            admitted: 80,
            shed: 15,
            expired: 5,
            timeouts: 12,
            retries: 9,
            brownout_skips: 3,
            peak_queue: 17,
        });
        let doc = requests_jsonl(&report);
        assert_eq!(doc.lines().count(), 1);
        for line in doc.lines() {
            assert_valid_json(line);
        }
        assert!(doc.contains("\"type\":\"requests\""));
        assert!(doc.contains("\"spu\":\"user1\""));
        assert!(doc.contains("\"shed\":15"));
        assert!(doc.contains("\"peak_queue\":17"));
    }

    #[test]
    fn interference_jsonl_lines_are_valid_and_named() {
        use crate::obsv::interference::{Channel, InterferenceMatrix};
        let mut report = ObsvReport::default();
        report.interference.spu_names = vec![
            "kernel".into(),
            "shared".into(),
            "user0".into(),
            "user1".into(),
        ];
        report.interference.matrix = InterferenceMatrix::new(4);
        report.interference.matrix.add(
            Channel::LockRoot,
            SpuId::user(0),
            SpuId::user(1),
            1_500_000,
        );
        report.interference.lock_hold_nanos = vec![0, 0, 0, 42, 0, 0, 0, 0];
        let doc = interference_jsonl(&report);
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            assert_valid_json(line);
        }
        assert!(doc.contains("\"channel\":\"lock.root\""));
        assert!(doc.contains("\"waiter\":\"user0\""));
        assert!(doc.contains("\"holder\":\"user1\""));
        assert!(doc.contains("\"type\":\"lock_hold\""));
        assert!(doc.contains("\"class\":\"root\""));
        assert!(doc.contains("\"nanos\":42"));
    }

    #[test]
    fn slo_jsonl_emits_rows_and_samples() {
        use crate::obsv::interference::{SloSample, SpuSlo};
        use event_sim::SimDuration;
        let mut report = ObsvReport::default();
        report.slo.target = SimDuration::from_millis(5);
        report.slo.per_spu.push(SpuSlo {
            spu: SpuId::user(0),
            name: "user0".into(),
            jobs: 10,
            met: 9,
            violated: 1,
            p50: 0.002,
            p99: 0.006,
            p999: 0.006,
            goodput: 4.5,
            violation_frac: 0.1,
            samples: vec![SloSample {
                at: SimTime::from_millis(100),
                completed: 4,
                violated: 0,
            }],
        });
        let doc = slo_jsonl(&report);
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            assert_valid_json(line);
        }
        assert!(doc.contains("\"type\":\"slo\""));
        assert!(doc.contains("\"target_secs\":0.005"));
        assert!(doc.contains("\"type\":\"slo_sample\""));
    }

    #[test]
    fn interference_matrix_json_is_one_valid_document() {
        use crate::obsv::interference::{Channel, InterferenceMatrix, InterferenceReport};
        let mut r = InterferenceReport {
            spu_names: vec!["kernel".into(), "shared".into(), "user0".into()],
            matrix: InterferenceMatrix::new(3),
            lock_hold_nanos: vec![0; 6],
        };
        r.matrix
            .add(Channel::MemSteal, SpuId::user(0), SpuId::SHARED, 1);
        let doc = interference_matrix_json(&r);
        assert_valid_json(&doc);
        assert!(doc.contains("\"unit\":\"pages\""));
        // Empty report still renders a valid document.
        assert_valid_json(&interference_matrix_json(&InterferenceReport::default()));
    }

    #[test]
    fn lock_wait_spans_open_and_close() {
        use crate::locks::LockId;
        let mut tr = Trace::new();
        tr.enable(100);
        tr.push(TraceEvent::LockWait {
            at: SimTime::from_millis(1),
            pid: Pid(7),
            spu: SpuId::user(1),
            lock: LockId::ROOT,
        });
        tr.push(TraceEvent::LockGrant {
            at: SimTime::from_millis(3),
            pid: Pid(7),
            lock: LockId::ROOT,
            holder: SpuId::user(0),
        });
        // A second wait left open closes at trace end with a null holder.
        tr.push(TraceEvent::LockWait {
            at: SimTime::from_millis(4),
            pid: Pid(8),
            spu: SpuId::user(0),
            lock: LockId::inode(crate::fs::FileId(4)),
        });
        let doc = chrome_trace_json(&tr, &SpuSet::equal_users(2), &ObsvReport::default());
        assert_valid_json(&doc);
        assert!(doc.contains("\"name\":\"lock-wait:root\""));
        assert!(doc.contains("\"name\":\"lock-wait:inode\""));
        assert!(doc.contains("\"tid\":1007"));
        assert!(doc.contains("\"dur\":2000"));
        assert!(doc.contains("\"holder\":2")); // user0's dense index
        assert!(doc.contains("\"holder\":null"));
    }

    #[test]
    fn block_closes_the_span_of_the_blocking_pid() {
        let mut tr = Trace::new();
        tr.enable(100);
        tr.push(TraceEvent::Dispatch {
            at: SimTime::from_millis(0),
            cpu: 3,
            pid: Pid(9),
            spu: SpuId::user(0),
            loaned: false,
        });
        tr.push(TraceEvent::Block {
            at: SimTime::from_millis(2),
            pid: Pid(9),
            reason: crate::process::BlockReason::Io,
        });
        let doc = chrome_trace_json(&tr, &SpuSet::equal_users(1), &ObsvReport::default());
        assert_valid_json(&doc);
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 1);
        assert!(doc.contains("\"tid\":3"));
        assert!(doc.contains("\"dur\":2000"));
    }
}
