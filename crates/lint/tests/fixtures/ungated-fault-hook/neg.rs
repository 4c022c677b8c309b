fn poll(port: &Port) {
    if xrdma_faults::active() {
        if xrdma_faults::port_drop(&port.label) {
            return;
        }
    }
}
