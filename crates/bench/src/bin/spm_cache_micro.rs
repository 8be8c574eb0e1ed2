//! Demonstrates §3.1's "collaboratively using the whole SPM in a CPE
//! cluster": random bitmap lookups through the cluster-wide sharded SPM
//! cache versus the main-memory path.
//!
//! Usage: `spm_cache_micro [bits] [lookups]`

use rand::{Rng, SeedableRng};
use sw_arch::spm_cache::ClusterBitmap;
use sw_arch::{ChipConfig, CpeId};
use sw_bench::{print_table, PositionalArgs};

fn main() {
    let args = PositionalArgs::new("spm_cache_micro [bits] [lookups]");
    let bits: u64 = args.get(0, 16 << 20);
    let lookups: u64 = args.get(1, 1 << 20);
    let chip = ChipConfig::sw26010();

    println!("§3.1 collaborative SPM: {bits} bit cluster bitmap, {lookups} random lookups\n");
    println!(
        "aggregate SPM capacity at 32 KB/CPE reserve: {} Mbit ({} MB of state)",
        ClusterBitmap::capacity_bits(&chip, 32 * 1024) >> 20,
        ClusterBitmap::capacity_bits(&chip, 32 * 1024) >> 23
    );

    let mut cb = ClusterBitmap::new(chip, bits, 16 * 1024).expect("bitmap fits");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut hits = 0u64;
    for i in 0..lookups {
        let from = CpeId::new(rng.gen_range(0..8), rng.gen_range(0..8));
        let bit = rng.gen_range(0..bits);
        if i % 3 == 0 {
            cb.set(from, bit);
        } else if cb.get(from, bit) {
            hits += 1;
        }
    }

    let spm_ns = cb.elapsed_ns();
    let mem_ns = cb.memory_equivalent_ns();
    let rows = vec![
        vec![
            "cluster SPM (sharded, register hops)".into(),
            format!("{:.0}", spm_ns / 1e3),
            format!("{:.1}", spm_ns / lookups as f64),
        ],
        vec![
            "main memory (per-access latency)".into(),
            format!("{:.0}", mem_ns / 1e3),
            format!("{:.1}", mem_ns / lookups as f64),
        ],
    ];
    print_table(&["path", "total (µs)", "ns/lookup"], &rows);
    println!(
        "\nspeedup {:.1}x  (shard {} B/CPE; {} hits observed — functional, not just timed)",
        mem_ns / spm_ns,
        cb.shard_bytes(),
        hits
    );
    println!("Paper: SPM's next level is global memory 'with a latency that is");
    println!("100 times larger' — collaborative SPM keeps the random range on-chip.");
}
