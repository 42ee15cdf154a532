//! End-to-end simulated sorting: Algorithm 4 (33 rounds) vs the
//! randomized sample sort, plus the Algorithm 3 subset sort (E6/E7/E10).

use cc_baselines::sort_randomized;
use cc_bench::harness::{self, Options};
use cc_core::sorting::sort_keys;
use cc_workloads as wl;

fn main() {
    let opts = Options::from_env();
    let mut entries = Vec::new();
    for n in [16usize, 36, 64] {
        let keys = wl::uniform_keys(n, 5);
        entries.push(harness::bench("det37", n, "default", &opts, || {
            sort_keys(&keys).unwrap()
        }));
        entries.push(harness::bench("randomized", n, "default", &opts, || {
            sort_randomized(&keys, 7).unwrap()
        }));
    }
    harness::write_json("sorting", &opts, &entries, &[]);
}
