// A cross-lane merge keyed on bare arrival time: ties between two lanes'
// events resolve by heap internals, so the merged order depends on the
// order lanes were drained in — exactly the nondeterminism S3 exists to
// catch.
struct Mailbox {
    inbound: BinaryHeap<Reverse<Time>>,
}

struct CrossEvent {
    at: Time,
    dst: u32,
}

impl Ord for CrossEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at)
    }
}
