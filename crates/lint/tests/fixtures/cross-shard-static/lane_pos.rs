// Lane state smuggled out of the lane: a process-global registry is
// shared by every world in the process, and worlds run concurrently on
// rayon workers, so it races. Must fire S2.
static LIVE_LANES: AtomicUsize = AtomicUsize::new(0);
