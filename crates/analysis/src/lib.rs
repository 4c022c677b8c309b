//! # xrdma-analysis — the X-RDMA analysis framework (§VI)
//!
//! Production bugs "such as jitter, time-out, performance downgrade and
//! glitch may appear at different stages" (§VI); this crate is the
//! reproduction of the machinery the paper builds to chase them, mapped to
//! Table II:
//!
//! | bug type              | tracking method here                          |
//! |-----------------------|-----------------------------------------------|
//! | heavy incast          | [`tracer::Tracer`] + [`xrstat`]                |
//! | broken network        | keepalive (core) + [`xrping::XrPing`]          |
//! | jitter / long tail    | [`tracer::Tracer`] + [`xrperf::XrPerf`]        |
//! | hard-to-reproduce     | [`filter::Filter`] fault injection             |
//! | memory leak / crash   | memcache isolation (core) + [`monitor`] gauges |
//!
//! plus the [`mock`] RDMA→TCP escape hatch, the [`clocksync`] service the
//! latency decomposition needs, and [`adm::XrAdm`] for distributing online
//! configuration (Table III) to running contexts.

pub mod adm;
pub mod clocksync;
pub mod filter;
pub mod mock;
pub mod monitor;
pub mod tracer;
pub mod xrperf;
pub mod xrping;
pub mod xrserver;
pub mod xrstat;

pub use adm::XrAdm;
pub use filter::Filter;
pub use mock::MockTransport;
pub use monitor::Monitor;
pub use tracer::Tracer;
pub use xrping::XrPing;
pub use xrserver::XrServer;
