//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! workspace's public functions; nothing inside the program is
//! instrumented. Recording is off unless [`enable`] was called, in which
//! case [`span`] is a plain call. Spans are kept in memory and read out
//! with [`take`] when the traced work is done.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.journal.save`.
    pub name: String,
    /// Start, in ns since the recorder was enabled.
    pub start_ns: u64,
    /// End, in ns since the recorder was enabled.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// A shadow span re-runs part of the work alone so it can be
    /// attributed (decode-only and kernel-alone passes); it is not part
    /// of the workload's own work.
    pub shadow: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

fn record<T>(name: &str, shadow: bool, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len();
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            shadow,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Runs `f` inside a span named `name` (a plain call when disabled).
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    record(name, false, f)
}

/// Runs `f` inside a shadow span (see [`Span::shadow`]).
pub fn shadow<T>(name: &str, f: impl FnOnce() -> T) -> T {
    record(name, true, f)
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            shadow("shadow", || ());
        });
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[2].shadow);
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[0] + spans[1].dur_ns() + spans[2].dur_ns(),
            spans[0].dur_ns()
        );
        assert!(RECORDER.with(|r| r.borrow().is_none()));
        assert_eq!(span("off", || 7), 7);
        assert!(take().is_empty());
    }
}
