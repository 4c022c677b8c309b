static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static mut COUNTER: u64 = 0;
