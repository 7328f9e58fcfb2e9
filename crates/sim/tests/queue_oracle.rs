//! `MultiServerQueue::run`, pinned bit for bit.
//!
//! Every leaf window's latencies come out of `run`, so every fleet digest
//! and figure depends on its exact bits and on how many values it draws
//! from the generator.  This test sweeps it over server counts ×
//! utilizations (nearly idle to well past saturation) × service
//! distributions (constant, exponential, two log-normals and a closure that
//! returns negative times) × request counts × seeds.  It folds every
//! latency's bits, and the generator's next uniform after each run, into
//! one FNV-1a digest.  A faster queue must reproduce it; change it only for
//! a deliberate change to the simulation.

use heracles_sim::{LogNormal, MultiServerQueue, SimRng};

/// FNV-1a 64 step over one `u64` word (little-endian bytes).
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const SERVERS: [usize; 10] = [1, 2, 3, 7, 12, 18, 30, 36, 48, 64];
const UTILIZATIONS: [f64; 7] = [0.05, 0.3, 0.6, 0.9, 0.97, 1.05, 1.5];
const REQUESTS: [usize; 3] = [0, 1, 1200];
const SEEDS: [u64; 3] = [1, 42, 0x5eed];
/// Mean service time of every distribution, in seconds.
const MEAN_S: f64 = 0.002;

/// One service-time sample of distribution `kind`, with mean `MEAN_S`
/// (before the queue clamps negative samples to zero).
fn draw(kind: usize, rng: &mut SimRng) -> f64 {
    match kind {
        0 => MEAN_S,
        1 => rng.exp(MEAN_S),
        2 => LogNormal::new(MEAN_S, 0.2).sample(rng),
        3 => LogNormal::new(MEAN_S, 0.55).sample(rng),
        _ => rng.normal(MEAN_S, 1.5 * MEAN_S),
    }
}

#[test]
fn run_matches_recorded_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut runs = 0;
    for servers in SERVERS {
        let queue = MultiServerQueue::new(servers);
        for utilization in UTILIZATIONS {
            let lambda = utilization * servers as f64 / MEAN_S;
            for kind in 0..5 {
                for requests in REQUESTS {
                    for seed in SEEDS {
                        let mut rng = SimRng::new(seed);
                        let lat = queue.run(&mut rng, lambda, requests, |r| draw(kind, r));
                        digest = fnv1a_word(digest, lat.len() as u64);
                        for sample in lat.samples() {
                            digest = fnv1a_word(digest, sample.to_bits());
                        }
                        digest = fnv1a_word(digest, rng.uniform().to_bits());
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 3150);
    assert_eq!(digest, RECORDED_DIGEST, "got {digest:#018x}");
}

const RECORDED_DIGEST: u64 = 0xd8ef_8972_27f8_8b0e;
