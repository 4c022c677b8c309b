fn poll(port: &Port) {
    if xrdma_faults::port_drop(&port.label) {
        return;
    }
}

// A cfg gate is no guard: the hook still runs in every build that has it.
#[cfg(feature = "faults")]
fn squeeze(port: &Port) -> Option<u64> {
    xrdma_faults::port_limit(&port.label)
}
