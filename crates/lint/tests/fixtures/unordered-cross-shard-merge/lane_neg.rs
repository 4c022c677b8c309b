// The cross-lane merge rule: cross events carry the sender's monotone
// sequence number, and merges sort on the full unique key — a pure
// function of simulation state, never of drain order.
struct CrossEvent {
    at: Time,
    src: u32,
    src_seq: u64,
}

fn merge(inbound: &mut Vec<CrossEvent>) {
    inbound.sort_unstable_by_key(|e| (e.at, e.src, e.src_seq));
}

struct Entry {
    at: Time,
    seq: u64,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
