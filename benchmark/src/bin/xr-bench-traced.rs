fn main() {
    xr_bench::cli();
}
