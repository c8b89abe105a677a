//! Span recorder for traced runs.
//!
//! A span records a name, start, end, its parent span, and the rep it
//! belongs to. Spans stay in memory; the report folds them into per-rep
//! layer times, a self-time table, and (on request) a Chrome trace-event
//! file viewable in Perfetto. While recording is off, [`span`] only
//! calls its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        rep: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// True while recording.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Starts rep `rep`: later spans carry its id. Reserves room so that
/// recording inside the rep does not allocate, which would show up in
/// the rep's heap counters.
pub fn begin_rep(rep: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.rep = rep;
        // A panic caught inside the previous rep can leave spans open.
        r.open.clear();
        if r.on {
            r.spans.reserve(1024);
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let i = r.spans.len();
        let span = Span {
            name,
            start_ns: now_ns(r.epoch),
            end_ns: 0,
            parent: r.open.last().copied(),
            rep: r.rep,
        };
        r.spans.push(span);
        r.open.push(i);
        Some(i)
    });
    let out = f();
    if let Some(i) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[i].end_ns = now_ns(r.epoch);
            r.open.pop();
        });
    }
    out
}

/// Runs `f` with recording off, restoring the previous state after.
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was = REC.with(|r| std::mem::replace(&mut r.borrow_mut().on, false));
    let out = f();
    set_enabled(was);
    out
}

/// Total duration per span name within rep `rep`.
pub fn rep_totals(rep: u32) -> BTreeMap<&'static str, u64> {
    REC.with(|r| {
        let mut out = BTreeMap::new();
        for s in r.borrow().spans.iter().rev().take_while(|s| s.rep == rep) {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    })
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Per name: `(count, total ns, self ns)`, where a span's self time is
/// its duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(c);
    }
    out
}

/// The spans as Chrome trace-event JSON (complete events, microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"rep\":{}}}}}{}",
            sp.name,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            sp.rep,
            if i + 1 < spans.len() { ",\n" } else { "\n" }
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            sp("setup", 0, 100, None),
            sp("elab", 10, 40, Some(0)),
            sp("partition", 40, 70, Some(0)),
            sp("inner", 45, 55, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["setup"], (1, 100, 40));
        assert_eq!(t["partition"], (1, 30, 20));
        assert_eq!(t["inner"], (1, 10, 10));
    }

    #[test]
    fn recorder_nests_and_totals_per_rep() {
        set_enabled(true);
        begin_rep(7);
        span("outer", || span("inner", || std::hint::black_box(1)));
        let totals = rep_totals(7);
        set_enabled(false);
        assert!(totals["outer"] >= totals["inner"]);
        let all = spans();
        let inner = all.iter().rposition(|s| s.name == "inner").unwrap();
        let outer = all[inner].parent.unwrap();
        assert_eq!(all[outer].name, "outer");
        assert!(chrome_json(&all).contains("\"name\":\"inner\""));
    }
}
