static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());
