//! Seeded input schedules: arrivals, scene picks, the frame/sequence mix
//! and camera azimuths. Everything a workload sends is drawn here from the
//! `--seed` argument with the benchmark's own generator, so no change to the
//! program under test can move the inputs.

/// The one scene set every workload draws from, in Zipf rank order
/// (rank 1 = most popular).
pub const SCENES: [&str; 6] = ["Mic", "Hotdog", "Lego", "Ficus", "Ship", "Palace"];

/// Distinct azimuths per run in `serve` and `fleet`. Few enough that the
/// byte-identity and PSNR references (one per distinct request) stay cheap,
/// many enough that views differ in empty-space share.
pub const AZIMUTH_SLOTS: usize = 4;

/// SplitMix64: small, seedable, and stable across toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per (seed, stream) pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Zipf(`s`) weights of ranks `1..=n`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| (k as f64).powf(-s)).collect()
}

/// `n` picks of indices into `weights`, each index exactly its
/// largest-remainder share of `n`, in seeded random order. Stratified
/// rather than independent draws: every run of a workload carries the same
/// mix, so runs with different seeds differ in order and timing, not in
/// how much work they hold.
pub fn quota_picks(rng: &mut Rng, n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in by_remainder.iter().take(n - counts.iter().sum::<usize>()) {
        counts[k] += 1;
    }
    let mut picks: Vec<usize> = counts.iter().enumerate().flat_map(|(k, &c)| vec![k; c]).collect();
    shuffle(rng, &mut picks);
    picks
}

/// Weights of the joint cells of independent factors, the last factor
/// varying fastest: cell `(i, j)` of factors `a`, `b` is `i * b.len() + j`
/// with weight `a[i] * b[j]`. [`quota_picks`] over these apportions every
/// combination exactly, so a run's mix of, say, expensive scenes *as*
/// sequences is the same for every seed, not only each factor's share.
pub fn joint_weights(factors: &[Vec<f64>]) -> Vec<f64> {
    factors
        .iter()
        .fold(vec![1.0], |acc, f| acc.iter().flat_map(|a| f.iter().map(move |b| a * b)).collect())
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One camera view: a scene (index into [`SCENES`]) and an orbit azimuth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    /// Index into [`SCENES`].
    pub scene: usize,
    /// Orbit azimuth of the first frame, degrees.
    pub azimuth_deg: f32,
}

impl View {
    /// The scene's registry name.
    pub fn scene_name(&self) -> &'static str {
        SCENES[self.scene]
    }
}

/// The `frame` workload's view set: every scene at `per_scene` azimuths
/// evenly spaced around its orbit from a seeded phase. The closed loop
/// cycles through it, so per-view quantities (op counts, PSNR) repeat
/// exactly for a seed.
pub fn frame_views(seed: u64, per_scene: usize) -> Vec<View> {
    let mut rng = Rng::new(seed, 1);
    let mut views = Vec::with_capacity(SCENES.len() * per_scene);
    for scene in 0..SCENES.len() {
        let phase = rng.unit() * 360.0 / per_scene as f64;
        for k in 0..per_scene {
            let azimuth_deg = (phase + k as f64 * 360.0 / per_scene as f64) as f32;
            views.push(View { scene, azimuth_deg });
        }
    }
    views
}

/// The run's [`AZIMUTH_SLOTS`] azimuths: evenly spaced from a seeded phase.
fn azimuth_slots(rng: &mut Rng) -> [f32; AZIMUTH_SLOTS] {
    let phase = rng.unit() * 360.0 / AZIMUTH_SLOTS as f64;
    std::array::from_fn(|k| (phase + k as f64 * 360.0 / AZIMUTH_SLOTS as f64) as f32)
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds after the schedule starts.
    pub at_s: f64,
    /// The requested view (first frame).
    pub view: View,
    /// Frames in the request (1, or an orbit sequence).
    pub frames: usize,
}

/// The `serve` schedule: a Poisson process of rate `rate_rps` over
/// `seconds`, conditioned on its expected count (uniform arrival times,
/// sorted), with Zipf(`zipf_s`) scene picks, `seq_share` of requests as
/// `seq_frames`-frame orbit sequences and the rest single frames, and
/// uniform azimuth slots — each mix drawn by [`quota_picks`].
pub fn serve_schedule(
    seed: u64,
    seconds: f64,
    rate_rps: f64,
    zipf_s: f64,
    seq_share: f64,
    seq_frames: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 2);
    let slots = azimuth_slots(&mut rng);
    let n = (rate_rps * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let cells = joint_weights(&[
        zipf_weights(SCENES.len(), zipf_s),
        vec![1.0 - seq_share, seq_share],
        vec![1.0; AZIMUTH_SLOTS],
    ]);
    quota_picks(&mut rng, n, &cells)
        .into_iter()
        .zip(times)
        .map(|(cell, at_s)| {
            let scene = cell / (2 * AZIMUTH_SLOTS);
            let seq = cell / AZIMUTH_SLOTS % 2 == 1;
            Arrival {
                at_s,
                view: View { scene, azimuth_deg: slots[cell % AZIMUTH_SLOTS] },
                frames: if seq { seq_frames } else { 1 },
            }
        })
        .collect()
}

/// Requests per block of a [`ClientStream`]; each block holds the exact
/// scene and azimuth mix.
const CLIENT_BLOCK: usize = 48;

/// One closed-loop client's endless request stream for `fleet`: blocks of
/// [`CLIENT_BLOCK`] requests, each a [`quota_picks`] shuffle of the
/// Zipf(`zipf_s`) scene mix and the azimuth slots.
#[derive(Debug, Clone)]
pub struct ClientStream {
    rng: Rng,
    weights: Vec<f64>,
    slots: [f32; AZIMUTH_SLOTS],
    block: Vec<View>,
}

impl ClientStream {
    /// Client `client`'s stream. All clients of a run share the azimuth
    /// slots; each has its own pick sequence.
    pub fn new(seed: u64, client: u64, zipf_s: f64) -> ClientStream {
        let slots = azimuth_slots(&mut Rng::new(seed, 3));
        let weights = zipf_weights(SCENES.len(), zipf_s);
        ClientStream { rng: Rng::new(seed, 16 + client), weights, slots, block: Vec::new() }
    }
}

impl Iterator for ClientStream {
    type Item = View;

    fn next(&mut self) -> Option<View> {
        if self.block.is_empty() {
            let cells = joint_weights(&[self.weights.clone(), vec![1.0; AZIMUTH_SLOTS]]);
            // reversed so pop() yields the block in drawn order
            self.block = quota_picks(&mut self.rng, CLIENT_BLOCK, &cells)
                .into_iter()
                .rev()
                .map(|cell| View {
                    scene: cell / AZIMUTH_SLOTS,
                    azimuth_deg: self.slots[cell % AZIMUTH_SLOTS],
                })
                .collect();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_bytes(out: &mut Vec<u8>, v: &View) {
        out.extend_from_slice(&(v.scene as u64).to_le_bytes());
        out.extend_from_slice(&v.azimuth_deg.to_bits().to_le_bytes());
    }

    /// Every input a run sends for `seed`, serialized bit-exactly.
    fn schedule_bytes(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for v in frame_views(seed, 2) {
            view_bytes(&mut out, &v);
        }
        for a in serve_schedule(seed, 20.0, 5.0, 1.0, 0.25, 4) {
            out.extend_from_slice(&a.at_s.to_bits().to_le_bytes());
            view_bytes(&mut out, &a.view);
            out.extend_from_slice(&(a.frames as u64).to_le_bytes());
        }
        for client in 0..2 {
            for v in ClientStream::new(seed, client, 1.2).take(500) {
                view_bytes(&mut out, &v);
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        assert_eq!(schedule_bytes(7), schedule_bytes(7));
        assert_ne!(schedule_bytes(7), schedule_bytes(8));
    }

    #[test]
    fn serve_schedule_has_the_requested_rate_and_mix() {
        let s = serve_schedule(3, 200.0, 5.0, 1.0, 0.25, 4);
        assert_eq!(s.len(), 1000);
        // each of the 48 joint cells is within one request of its share
        let seqs = s.iter().filter(|a| a.frames == 4).count();
        assert!((250 - 24..=250 + 24).contains(&seqs), "{seqs} sequences");
        assert!(s.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(s.iter().all(|a| (0.0..200.0).contains(&a.at_s)));
        // Zipf(1): rank 1 is picked twice as often as rank 2
        let count = |k| s.iter().filter(|a| a.view.scene == k).count();
        assert!(count(0).abs_diff(408) <= 8 && count(1).abs_diff(204) <= 8);
        // the same joint mix for every seed; only order, timing and the
        // azimuth phase change
        let other = serve_schedule(4, 200.0, 5.0, 1.0, 0.25, 4);
        let mix = |s: &[Arrival]| {
            let mut slots: Vec<u32> = s.iter().map(|a| a.view.azimuth_deg.to_bits()).collect();
            slots.sort_unstable();
            slots.dedup();
            let mut cells = vec![0; SCENES.len() * 2 * AZIMUTH_SLOTS];
            for a in s {
                let slot = slots.binary_search(&a.view.azimuth_deg.to_bits()).unwrap();
                cells[(a.view.scene * 2 + usize::from(a.frames > 1)) * AZIMUTH_SLOTS + slot] += 1;
            }
            cells
        };
        assert_eq!(mix(&s), mix(&other));
        assert_ne!(s[0].at_s, other[0].at_s);
    }

    #[test]
    fn quota_picks_apportion_exactly() {
        let mut rng = Rng::new(1, 1);
        let picks = quota_picks(&mut rng, 10, &[0.5, 0.3, 0.2]);
        let count = |k| picks.iter().filter(|&&p| p == k).count();
        assert_eq!((count(0), count(1), count(2)), (5, 3, 2));
        // largest remainder: 7 × [1/3, 1/3, 1/3] = 2.33 each, one extra
        let picks = quota_picks(&mut rng, 7, &[1.0, 1.0, 1.0]);
        assert_eq!(picks.len(), 7);
        assert!((0..3).all(|k| (2..=3).contains(&picks.iter().filter(|&&p| p == k).count())));
    }

    #[test]
    fn client_streams_differ_but_share_azimuths() {
        let a: Vec<View> = ClientStream::new(5, 0, 1.2).take(200).collect();
        let b: Vec<View> = ClientStream::new(5, 1, 1.2).take(200).collect();
        assert_ne!(a, b);
        let mut az: Vec<u32> = a.iter().chain(&b).map(|v| v.azimuth_deg.to_bits()).collect();
        az.sort_unstable();
        az.dedup();
        assert_eq!(az.len(), AZIMUTH_SLOTS);
    }
}
