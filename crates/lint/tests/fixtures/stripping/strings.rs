fn all_patterns_inside_strings() {
    let a = "Instant::now() and SystemTime belong to the host, not the sim";
    let b = "thread_rng() vec![0u8; 9] .to_vec() Box::new(x) payload.clone()";
    let c = r#"emit_raw("quoted") xrdma_faults::port_drop static mut COUNTER"#;
    let d = "xrdma-lint: allow(hot-path-alloc) -- not a real annotation";
    let e = 'I';
    let f: &'static str = "thread_local! { static S: RefCell<u8> }";
}
