// xrdma-lint: allow(cross-shard-static) -- the Mutex below was removed two PRs ago
fn now_ns(world: &World) -> u64 {
    world.now().as_nanos()
}
