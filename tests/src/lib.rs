//! Integration-test-only crate; see the `tests/` directory targets. It
//! holds the one driver several of them share.

use std::cell::Cell;
use std::rc::Rc;

use xrdma_core::XrdmaChannel;

/// Keep one `size`-byte RPC in flight on `ch`: each response is counted
/// in `done` and sends the next request.
pub fn pump(ch: &Rc<XrdmaChannel>, size: u64, done: &Rc<Cell<u64>>) {
    let c2 = ch.clone();
    let d2 = done.clone();
    ch.send_request_size(size, move |_, _| {
        d2.set(d2.get() + 1);
        pump(&c2, size, &d2);
    })
    .expect("send accepted");
}
