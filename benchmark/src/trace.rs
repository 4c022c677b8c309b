//! The benchmark's own host-time spans: recorded from the benchmark's
//! files around its calls into the stack (`core.submit`), around its
//! callbacks (`app.callback`) and around each measured slice. Kept in
//! memory, written out when the child ends. Off (one thread-local read
//! per call site) unless the traced pass turns it on.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Slice,
    Submit,
    Callback,
}

impl Name {
    fn as_str(self) -> &'static str {
        match self {
            Name::Slice => "slice",
            Name::Submit => "core.submit",
            Name::Callback => "app.callback",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: u32,
    /// The measured slice it ran in: the identifier spans of one slice share.
    slice: u32,
}

pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    slice: u32,
}

thread_local! {
    static LOG: RefCell<Option<SpanLog>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn enable() {
    LOG.with(|l| {
        *l.borrow_mut() = Some(SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            slice: 0,
        })
    });
}

/// Stop recording and hand the log back (None if never enabled).
pub fn take() -> Option<SpanLog> {
    LOG.with(|l| l.borrow_mut().take())
}

/// Run `f` inside a span named `name`; a plain call when recording is off.
#[inline]
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    let idx = LOG.with(|l| {
        l.borrow_mut().as_mut().map(|log| {
            if name == Name::Slice {
                log.slice += 1;
            }
            let idx = log.spans.len() as u32;
            log.spans.push(Span {
                name,
                start_ns: log.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: log.open.last().copied().unwrap_or(NO_PARENT),
                slice: log.slice,
            });
            log.open.push(idx);
            idx
        })
    });
    let r = f();
    if let Some(idx) = idx {
        LOG.with(|l| {
            if let Some(log) = l.borrow_mut().as_mut() {
                log.spans[idx as usize].end_ns = log.t0.elapsed().as_nanos() as u64;
                log.open.pop();
            }
        });
    }
    r
}

/// What the traced pass reports from the log.
pub struct Summary {
    /// Mean duration of one `core.submit` span.
    pub submit_ns_per_call: f64,
    /// Total `app.callback` self time (children subtracted).
    pub callback_self_ns: u64,
    pub spans: usize,
}

impl SpanLog {
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let (mut submit_ns, mut submits, mut callback_self_ns) = (0u64, 0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            match s.name {
                Name::Submit => {
                    submit_ns += dur;
                    submits += 1;
                }
                Name::Callback => callback_self_ns += dur.saturating_sub(child_ns[i]),
                Name::Slice => {}
            }
        }
        Summary {
            submit_ns_per_call: submit_ns as f64 / submits.max(1) as f64,
            callback_self_ns,
            spans: self.spans.len(),
        }
    }

    /// `{"spans": [[name, start_ns, end_ns, parent, slice], ...]}` with the
    /// column names beside it; -1 marks a span with no parent.
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    -1.0
                } else {
                    f64::from(s.parent)
                };
                Value::Arr(vec![
                    s.name.as_str().into(),
                    s.start_ns.into(),
                    s.end_ns.into(),
                    parent.into(),
                    u64::from(s.slice).into(),
                ])
            })
            .collect();
        let mut v = Value::obj();
        v.set("clock", "host ns since tracing began")
            .set(
                "columns",
                vec!["name", "start_ns", "end_ns", "parent", "slice"],
            )
            .set("spans", Value::Arr(rows));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_subtracts_children() {
        assert_eq!(span(Name::Submit, || 7), 7, "off: a plain call");
        enable();
        span(Name::Slice, || {
            span(Name::Callback, || {
                span(Name::Submit, || std::hint::black_box(0));
            });
        });
        let log = take().expect("enabled");
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[1].parent, 0);
        assert_eq!(log.spans[2].parent, 1);
        assert!(log
            .spans
            .iter()
            .all(|s| s.slice == 1 && s.end_ns >= s.start_ns));
        let cb = log.spans[1].end_ns - log.spans[1].start_ns;
        let sub = log.spans[2].end_ns - log.spans[2].start_ns;
        assert_eq!(log.summary().callback_self_ns, cb - sub);
        assert!(take().is_none());
    }
}
