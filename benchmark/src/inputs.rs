//! Seeded op-list generator: every input the benchmark feeds the program
//! is made here, from the seed alone.
//!
//! The *catalogue* — registry kernels × builtin devices × a three-entry
//! uniform-size menu — is fixed; the seed decides the order ops are issued
//! in, the oracle's random tile draws, and the serve traffic (mix, keys,
//! never-seen sizes, inline programs). Keeping the answered set
//! seed-independent is what lets `sim_energy_ratio` / `sim_ppw_gain` hold
//! still across seeds: they are deterministic functions of the answers,
//! so any movement is a changed answer, not a different draw.

use eatss::{EatssConfig, ThreadBlockCap};
use eatss_affine::parser::gen::{generate_program, GenConfig};
use eatss_gpusim::DeviceProfile;
use eatss_kernels::{Benchmark, Dataset};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Kernels whose formulation is unsatisfiable at the default half-warp
/// alignment on every builtin device. §V-D of the paper sweeps smaller
/// warp fractions for exactly these high-dimensional nests; 0.125 is the
/// largest paper fraction that is satisfiable for all four on all five
/// devices at every menu size.
const EIGHTH_WARP_KERNELS: [&str; 4] = ["fdtd-apml", "b2mm", "conv-2d", "heat-3d"];

/// The operating point a kernel is selected at.
pub fn config_for(kernel: &str) -> EatssConfig {
    let warp_fraction = if EIGHTH_WARP_KERNELS.contains(&kernel) {
        0.125
    } else {
        0.5
    };
    EatssConfig {
        warp_fraction,
        ..EatssConfig::default()
    }
}

/// The paper's testbed pairing (§V-A): EXTRALARGE on the datacenter
/// parts, STANDARD on the Jetson-class parts.
pub fn dataset_for(device: &str) -> Dataset {
    match device {
        "ga100" | "h100" => Dataset::ExtraLarge,
        _ => Dataset::Standard,
    }
}

/// Uniform problem sizes (`Benchmark::sizes_uniform`) offered per device
/// class, scaled like the datasets above.
pub fn size_menu(device: &str) -> [i64; 3] {
    match dataset_for(device) {
        Dataset::ExtraLarge => [1000, 2000, 4000],
        Dataset::Standard => [256, 512, 1024],
    }
}

/// One catalogue entry: a named kernel on a builtin device at a uniform
/// size.
#[derive(Debug, Clone)]
pub struct Key {
    pub bench: Benchmark,
    pub device: &'static str,
    pub n: i64,
}

/// Kernels × devices × size menu, in registry/portfolio/menu order.
pub fn catalogue() -> Vec<Key> {
    let mut keys = Vec::new();
    for bench in eatss_kernels::all() {
        for device in DeviceProfile::builtin_names() {
            for n in size_menu(device) {
                keys.push(Key {
                    bench: bench.clone(),
                    device,
                    n,
                });
            }
        }
    }
    keys
}

/// Derives an independent stream seed for `(seed, tag)` (splitmix64
/// finalizer over an FNV-1a fold of the tag).
pub fn mix(seed: u64, tag: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled<T>(mut ops: Vec<T>, seed: u64, tag: &str) -> Vec<T> {
    ops.shuffle(&mut StdRng::seed_from_u64(mix(seed, tag)));
    ops
}

/// `select-cold`: the whole catalogue, in seeded order.
pub fn select_cold(seed: u64) -> Vec<Key> {
    shuffled(catalogue(), seed, "select-cold")
}

/// One `verify-oracle` op: a kernel on a device, plus the seed of its
/// random tile draws. The draws are the same for every run seed: how
/// long an emulation takes depends heavily on the tiling drawn (a 1-wide
/// tile is a block per point), and a workload whose amount of work
/// changed with the seed could not be compared across seeds.
#[derive(Debug, Clone)]
pub struct OracleOp {
    pub bench: Benchmark,
    pub device: &'static str,
    pub draw_seed: u64,
}

/// Devices the oracle and sweep workloads target: the paper's two
/// testbeds.
pub const TESTBED_DEVICES: [&str; 2] = ["ga100", "xavier"];

/// Random `sample_tile_config` draws per oracle op, and the seed they
/// all derive from.
pub const ORACLE_DRAWS: usize = 4;
const ORACLE_DRAW_SEED: u64 = 0xEA75_50AC;

/// `verify-oracle`: every registry kernel on both testbed devices, in
/// seeded order.
pub fn verify_oracle(seed: u64) -> Vec<OracleOp> {
    let mut ops = Vec::new();
    for bench in eatss_kernels::all() {
        for device in TESTBED_DEVICES {
            let draw_seed = mix(ORACLE_DRAW_SEED, &format!("draws/{}/{device}", bench.name));
            ops.push(OracleOp {
                bench: bench.clone(),
                device,
                draw_seed,
            });
        }
    }
    shuffled(ops, seed, "verify-oracle")
}

/// One `sweep-front` op: a PolyBench kernel on a testbed device at that
/// device's dataset.
#[derive(Debug, Clone)]
pub struct SweepOp {
    pub bench: Benchmark,
    pub device: &'static str,
}

/// `sweep-front`: PolyBench × testbed devices, in seeded order.
pub fn sweep_front(seed: u64) -> Vec<SweepOp> {
    let mut ops = Vec::new();
    for bench in eatss_kernels::polybench() {
        for device in TESTBED_DEVICES {
            ops.push(SweepOp {
                bench: bench.clone(),
                device,
            });
        }
    }
    shuffled(ops, seed, "sweep-front")
}

/// The Fig. 8 shared-memory splits; with the §V-D warp fractions and both
/// thread-block caps they make the 32-point sweep.
pub const SWEEP_SPLITS: [f64; 4] = [0.0, 0.5, 0.67, 1.0];

/// One `serve-mixed` request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOp {
    /// A prefilled catalogue key (index into the prefilled key list).
    Hit(usize),
    /// A named kernel at a size no request used before.
    Miss {
        kernel: &'static str,
        device: &'static str,
        n: i64,
    },
    /// Inline source (index into [`inline_candidates`]'s accepted pool)
    /// at a size no request used before.
    Inline {
        program: usize,
        device: &'static str,
        n: i64,
    },
}

/// Share of requests (out of 100) that repeat a prefilled key, and that
/// name a kernel at a never-seen size; the remainder carries inline
/// source.
pub const HIT_PERCENT: u64 = 80;
pub const MISS_PERCENT: u64 = 15;

/// One client's endless, seeded request stream. Streams of different
/// clients never produce the same miss or inline size, so "never seen"
/// holds across the daemon's whole lifetime.
pub struct ServeStream {
    rng: StdRng,
    client: i64,
    clients: i64,
    hit_keys: usize,
    inline_programs: usize,
    pairs: Vec<(&'static str, &'static str)>,
    /// Misses and inline requests issued so far.
    fresh_issued: i64,
}

impl ServeStream {
    /// `keys` is the prefilled key list (its distinct kernel × device
    /// pairs are the miss targets); `inline_programs` the size of the
    /// inline pool.
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        keys: &[Key],
        inline_programs: usize,
    ) -> Self {
        let mut pairs: Vec<(&'static str, &'static str)> = Vec::new();
        for key in keys {
            if !pairs.contains(&(key.bench.name, key.device)) {
                pairs.push((key.bench.name, key.device));
            }
        }
        ServeStream {
            rng: StdRng::seed_from_u64(mix(seed, &format!("serve-mixed/{client}"))),
            client: client as i64,
            clients: clients as i64,
            hit_keys: keys.len(),
            inline_programs,
            pairs,
            fresh_issued: 0,
        }
    }

    /// The next size no request of any client has used on `device`. One
    /// counter serves misses and inline requests alike, because the
    /// daemon's cache key ignores names: two structurally equal programs
    /// at one size are one key. Menu sizes are even and fresh sizes odd,
    /// so a fresh size is never a prefilled one either.
    fn fresh_size(&mut self, device: &str) -> i64 {
        let n = fresh_size(device, self.fresh_issued * self.clients + self.client);
        self.fresh_issued += 1;
        n
    }
}

/// The `index`-th fresh (never prefilled) size on `device`.
pub fn fresh_size(device: &str, index: i64) -> i64 {
    size_menu(device)[0] + 1 + 2 * index
}

impl Iterator for ServeStream {
    type Item = ServeOp;

    fn next(&mut self) -> Option<ServeOp> {
        let roll = self.rng.gen_range(0..100u64);
        Some(if roll < HIT_PERCENT {
            ServeOp::Hit(self.rng.gen_range(0..self.hit_keys))
        } else if roll < HIT_PERCENT + MISS_PERCENT || self.inline_programs == 0 {
            let p = self.rng.gen_range(0..self.pairs.len());
            let (kernel, device) = self.pairs[p];
            let n = self.fresh_size(device);
            ServeOp::Miss { kernel, device, n }
        } else {
            let program = self.rng.gen_range(0..self.inline_programs);
            let device = TESTBED_DEVICES[self.rng.gen_range(0..TESTBED_DEVICES.len())];
            let n = self.fresh_size(device);
            ServeOp::Inline { program, device, n }
        })
    }
}

/// Endless stream of `parser::gen` programs, the same for every run seed
/// (a program's solve cost is its own; see [`OracleOp`]). The serve
/// workload keeps the first few the library can select tiles for, so no
/// request fails by construction.
pub fn inline_candidates() -> impl Iterator<Item = String> {
    let base = mix(ORACLE_DRAW_SEED, "inline");
    let cfg = GenConfig {
        kernels: 1,
        ..GenConfig::default()
    };
    (0u64..).map(move |i| generate_program(base.wrapping_add(i), &cfg))
}

/// Renders the default selection config's non-default knobs the way the
/// op lists print them.
fn config_tag(cfg: &EatssConfig) -> String {
    format!(
        "split={} wf={} strict={}",
        cfg.split_factor,
        cfg.warp_fraction,
        cfg.cap == ThreadBlockCap::Strict
    )
}

/// Canonical text of a workload's op list for `seed` (the first `count`
/// requests of client 0 and 1 for `serve-mixed`) — what the determinism
/// tests compare byte for byte, and what `--list-ops` prints.
pub fn render(workload: &str, seed: u64, count: usize) -> Option<String> {
    let mut out = format!("# {workload} seed={seed}\n");
    match workload {
        "select-cold" => {
            for k in select_cold(seed) {
                let _ = writeln!(
                    out,
                    "{} {} n={} {}",
                    k.bench.name,
                    k.device,
                    k.n,
                    config_tag(&config_for(k.bench.name))
                );
            }
        }
        "verify-oracle" => {
            for op in verify_oracle(seed) {
                let _ = writeln!(
                    out,
                    "{} {} draws={:#x}",
                    op.bench.name, op.device, op.draw_seed
                );
            }
        }
        "sweep-front" => {
            for op in sweep_front(seed) {
                let _ = writeln!(out, "{} {}", op.bench.name, op.device);
            }
        }
        "serve-mixed" => {
            let keys = catalogue();
            for client in 0..2 {
                for op in ServeStream::new(seed, client, 2, &keys, 8).take(count) {
                    let _ = match op {
                        ServeOp::Hit(i) => {
                            let k = &keys[i];
                            writeln!(out, "c{client} hit {} {} n={}", k.bench.name, k.device, k.n)
                        }
                        ServeOp::Miss { kernel, device, n } => {
                            writeln!(out, "c{client} miss {kernel} {device} n={n}")
                        }
                        ServeOp::Inline { program, device, n } => {
                            writeln!(out, "c{client} inline #{program} {device} n={n}")
                        }
                    };
                }
            }
        }
        _ => return None,
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_op_lists() {
        for w in WORKLOADS {
            let a = render(w.name, 7, 400).unwrap();
            let b = render(w.name, 7, 400).unwrap();
            assert_eq!(a, b, "{}", w.name);
            assert!(a.lines().count() > 30, "{}", w.name);
        }
    }

    #[test]
    fn different_seed_gives_different_order() {
        for w in WORKLOADS {
            let a = render(w.name, 7, 400).unwrap();
            let b = render(w.name, 8, 400).unwrap();
            assert_ne!(
                a.lines().skip(1).collect::<Vec<_>>(),
                b.lines().skip(1).collect::<Vec<_>>(),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn different_seed_gives_different_sizes() {
        // select-cold: the size issued at each position differs.
        let sizes = |seed| select_cold(seed).iter().map(|k| k.n).collect::<Vec<_>>();
        assert_ne!(sizes(7), sizes(8));
        // serve-mixed: the never-seen sizes differ.
        let misses = |seed| {
            ServeStream::new(seed, 0, 2, &catalogue(), 8)
                .take(400)
                .filter_map(|op| match op {
                    ServeOp::Miss { n, .. } => Some(n),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(misses(7), misses(8));
    }

    #[test]
    fn seeds_permute_one_catalogue() {
        let canon = |seed| {
            let mut v: Vec<String> = select_cold(seed)
                .iter()
                .map(|k| format!("{}/{}/{}", k.bench.name, k.device, k.n))
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(1), canon(2));
        assert_eq!(canon(1).len(), 21 * 5 * 3);
    }

    #[test]
    fn serve_mix_and_fresh_sizes() {
        let keys = catalogue();
        let mut seen = HashSet::new();
        let (mut hits, mut misses, mut inline) = (0, 0, 0);
        for client in 0..2 {
            for op in ServeStream::new(3, client, 2, &keys, 8).take(20_000) {
                match op {
                    ServeOp::Hit(i) => {
                        assert!(i < keys.len());
                        hits += 1;
                    }
                    ServeOp::Miss { kernel, device, n } => {
                        assert!(!size_menu(device).contains(&n));
                        let _ = kernel;
                        assert!(seen.insert((device, n)), "repeat size");
                        misses += 1;
                    }
                    ServeOp::Inline { program, device, n } => {
                        let _ = program;
                        assert!(seen.insert((device, n)), "repeat size");
                        inline += 1;
                    }
                }
            }
        }
        let total = (hits + misses + inline) as f64;
        assert!((hits as f64 / total - 0.80).abs() < 0.02);
        assert!((misses as f64 / total - 0.15).abs() < 0.02);
        assert!((inline as f64 / total - 0.05).abs() < 0.01);
    }
}
