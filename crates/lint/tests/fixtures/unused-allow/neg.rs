fn probe() {
    // xrdma-lint: allow(ungated-fault-hook) -- a reviewed probe outside any world
    xrdma_faults::note();
}
