//! The seeded workload generator.
//!
//! Everything a run feeds the system — due times, users, candidate sets
//! and interaction deltas — is derived from the `--seed` argument and built
//! here before timing starts, over a fixed synthetic catalog. The same seed
//! yields a byte-identical [`Schedule`] (see [`Schedule::to_bytes`]).

use lkp::data::{Dataset, Split, SyntheticConfig};

/// Users in the synthetic catalog.
pub const N_USERS: usize = 1000;
/// Items in the synthetic catalog.
pub const N_ITEMS: usize = 2000;
/// Served list length.
pub const TOP_N: usize = 10;
/// Candidate-pool size of a `serve_hot` user.
pub const HOT_POOL: usize = 100;
/// Candidate-set sizes of `serve_wide` requests, taken in turn. The 1:2:1
/// mix keeps the median request inside the 400-item cluster, so the median
/// latency does not jump between clusters from run to run.
pub const WIDE_SIZES: [usize; 4] = [200, 400, 400, 800];
/// Zipf exponent of `serve_hot` user popularity.
pub const HOT_ZIPF: f64 = 1.0;
/// Users touched by one refresh delta, each with one new interaction: the
/// delta shape of the repository's `refresh_probe` (one unobserved item for
/// every 10th user).
pub const DELTA_USERS: usize = N_USERS / 10;

/// The traffic shape of a request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Zipf-skewed users, each with one fixed 100-item pool: `(user, pool)`
    /// pairs repeat, so the kernel cache serves most requests.
    Hot,
    /// Uniform users, a fresh candidate set of 200, 400 or 800 items per
    /// request (see [`WIDE_SIZES`]): the cache never hits.
    Wide,
}

/// The nominal open-loop rate is this share of the shape's closed-loop
/// saturation.
pub const NOMINAL_SHARE: f64 = 0.1;

impl Shape {
    /// Closed-loop saturation in req/s: back-to-back submits into a default
    /// `FrontendDriver` over this catalog (1000 users × 2000 items, MF with
    /// d = 32), measured on the two-core host the bounds were fixed on.
    pub fn saturation_rps(self) -> f64 {
        match self {
            Shape::Hot => 20_700.0,
            Shape::Wide => 373.0,
        }
    }

    /// The open-loop rate of the latency window and of the reads beside the
    /// refreshes.
    pub fn nominal_rps(self) -> f64 {
        NOMINAL_SHARE * self.saturation_rps()
    }
}

/// Epochs of the phase-1 fit: two validation rounds at the trainer's
/// default `eval_every` of 5.
pub const FIT_EPOCHS: usize = 10;
/// Refresh deltas handed off in phase 2.
pub const REFRESHES: usize = 18;
/// Share of `--seconds` spent in the nominal latency window.
pub const NOMINAL_WINDOW_SHARE: f64 = 0.2;
/// Share of `--seconds` spent in closed-loop saturation windows.
pub const SATURATION_SHARE: f64 = 0.5;
/// The saturation stream holds this many times the requests the shape's
/// recorded saturation rate serves in those windows; a faster host cycles
/// through it again.
const SATURATION_HEADROOM: f64 = 2.0;
/// Reads beside the refreshes are generated for this many seconds per
/// refresh; the stream stops when the last refresh commits.
const BACKGROUND_S_PER_REFRESH: f64 = 1.0;
/// Generator lateness (send start past its due time, a blocking `submit`
/// excluded) beyond which a latency window is marked invalid, in ms.
pub const LATENESS_SLACK_MS: f64 = 10.0;

/// One workload. Every workload fits the model it serves, measures its
/// saturation throughput and runs the refreshes, because every run reports every
/// end-to-end metric; the workload picks the traffic shape and where the
/// latency figure comes from.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub name: &'static str,
    /// Shape of the latency window, the saturation windows and the reads
    /// beside the refreshes.
    pub shape: Shape,
    /// Latency comes from reads at the nominal rate that run beside the
    /// refreshes, instead of from a nominal window on an idle system.
    pub reads_beside_refresh: bool,
}

/// The workloads, by name.
pub const WORKLOADS: [Profile; 3] = [
    Profile {
        name: "serve_hot",
        shape: Shape::Hot,
        reads_beside_refresh: false,
    },
    Profile {
        name: "serve_wide",
        shape: Shape::Wide,
        reads_beside_refresh: false,
    },
    Profile {
        name: "train_refresh",
        shape: Shape::Hot,
        reads_beside_refresh: true,
    },
];

/// Looks a workload up by name.
pub fn profile(name: &str) -> Option<Profile> {
    WORKLOADS.iter().copied().find(|p| p.name == name)
}

/// Seed of the synthetic catalog, the model's initialization, and which
/// users are hot with which pools. These are fixed across runs so quality
/// and epoch-time figures compare across seeds; `--seed` drives every
/// request, delta and due time.
pub const WORLD_SEED: u64 = 42;

/// The synthetic dataset every run trains and serves.
pub fn dataset() -> Dataset {
    lkp::data::synthetic::generate(&SyntheticConfig {
        n_users: N_USERS,
        n_items: N_ITEMS,
        seed: WORLD_SEED,
        ..Default::default()
    })
}

/// One scheduled request: when it is due (ns after the window opens), who
/// asks, and which candidate set it ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub user: usize,
    pub set: usize,
}

/// Every input of one run, built before timing starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Candidate sets referenced by [`Arrival::set`]. Hot streams use one
    /// pool per user (index = user); wide streams get a fresh set per
    /// arrival.
    pub sets: Vec<Vec<usize>>,
    /// The nominal-rate latency window (empty when latency comes from the
    /// reads beside the refreshes).
    pub nominal: Vec<Arrival>,
    /// The closed-loop stream, sent back to back in order (its `due_ns` are
    /// unused).
    pub saturation: Vec<Arrival>,
    /// Reads beside the refreshes (empty unless the profile has them).
    pub background: Vec<Arrival>,
    /// One interaction delta per refresh: `(user, item)` events.
    pub deltas: Vec<Vec<(usize, usize)>>,
}

/// SplitMix64: a small, fully specified generator, so the schedule bytes
/// depend on nothing but the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Draws users from a Zipf law over a seeded permutation of all users.
struct Zipf {
    cdf: Vec<f64>,
    users: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        let cdf = cdf.into_iter().map(|c| c / total).collect();
        let mut users: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut users);
        Zipf { cdf, users }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.users.len() - 1);
        self.users[rank]
    }
}

/// A candidate set for `user`: every held-out test item of the user (so
/// served lists can earn NDCG) topped up with uniformly drawn items the user
/// has not interacted with in training or validation, shuffled.
fn candidate_set(data: &Dataset, user: usize, size: usize, rng: &mut Rng) -> Vec<usize> {
    let mut taken = vec![false; data.n_items()];
    for split in [Split::Train, Split::Validation] {
        for &i in data.user_items(user, split) {
            taken[i] = true;
        }
    }
    let mut set = Vec::with_capacity(size);
    for &i in data.user_items(user, Split::Test).iter().take(size) {
        if !taken[i] {
            taken[i] = true;
            set.push(i);
        }
    }
    while set.len() < size {
        let i = rng.below(data.n_items());
        if !taken[i] {
            taken[i] = true;
            set.push(i);
        }
    }
    rng.shuffle(&mut set);
    set
}

fn spacing_ns(rps: f64) -> f64 {
    1e9 / rps
}

impl Schedule {
    /// Builds the inputs of one run of `profile` lasting about `seconds`.
    pub fn build(seed: u64, profile: &Profile, seconds: f64, data: &Dataset) -> Schedule {
        // Which users are hot and their pools belong to the fixed catalog;
        // the seed draws the traffic over them.
        let mut world = Rng::new(WORLD_SEED, 1);
        let zipf = Zipf::new(data.n_users(), HOT_ZIPF, &mut world);
        let mut sets: Vec<Vec<usize>> = Vec::new();
        if profile.shape == Shape::Hot {
            sets = (0..data.n_users())
                .map(|u| candidate_set(data, u, HOT_POOL, &mut world))
                .collect();
        }
        let mut rng = Rng::new(seed, 1);
        let stream = |n: usize, rps: f64, rng: &mut Rng, sets: &mut Vec<Vec<usize>>| {
            let gap = spacing_ns(rps.max(1e-9));
            (0..n)
                .map(|i| {
                    let due_ns = (i as f64 * gap) as u64;
                    match profile.shape {
                        Shape::Hot => {
                            let user = zipf.draw(rng);
                            Arrival {
                                due_ns,
                                user,
                                set: user,
                            }
                        }
                        Shape::Wide => {
                            let user = rng.below(data.n_users());
                            let size = WIDE_SIZES[i % WIDE_SIZES.len()];
                            sets.push(candidate_set(data, user, size, rng));
                            Arrival {
                                due_ns,
                                user,
                                set: sets.len() - 1,
                            }
                        }
                    }
                })
                .collect::<Vec<_>>()
        };
        let rate = profile.shape.nominal_rps();
        let (nominal_n, background_n) = if profile.reads_beside_refresh {
            (
                0,
                (rate * BACKGROUND_S_PER_REFRESH * REFRESHES as f64).ceil() as usize,
            )
        } else {
            ((rate * seconds * NOMINAL_WINDOW_SHARE).round() as usize, 0)
        };
        let nominal = stream(nominal_n, rate, &mut rng, &mut sets);
        let saturation_n =
            (SATURATION_HEADROOM * profile.shape.saturation_rps() * seconds * SATURATION_SHARE)
                .ceil() as usize;
        let saturation = stream(saturation_n, rate, &mut rng, &mut sets);
        let background = stream(background_n, rate, &mut rng, &mut sets);

        let mut drng = Rng::new(seed, 2);
        let mut seen: Vec<Vec<usize>> = (0..data.n_users())
            .map(|u| {
                let mut v: Vec<usize> = [Split::Train, Split::Validation, Split::Test]
                    .iter()
                    .flat_map(|&s| data.user_items(u, s).iter().copied())
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        let deltas = (0..REFRESHES)
            .map(|_| {
                let mut users: Vec<usize> = (0..data.n_users()).collect();
                drng.shuffle(&mut users);
                let mut events = Vec::with_capacity(DELTA_USERS);
                for &u in users.iter().take(DELTA_USERS) {
                    loop {
                        let item = drng.below(data.n_items());
                        if let Err(pos) = seen[u].binary_search(&item) {
                            seen[u].insert(pos, item);
                            events.push((u, item));
                            break;
                        }
                    }
                }
                events
            })
            .collect();
        Schedule {
            sets,
            nominal,
            saturation,
            background,
            deltas,
        }
    }

    /// A canonical little-endian encoding of every field, for comparing
    /// schedules byte for byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |x: u64| out.extend_from_slice(&x.to_le_bytes());
        put(self.sets.len() as u64);
        for set in &self.sets {
            put(set.len() as u64);
            set.iter().for_each(|&i| put(i as u64));
        }
        for stream in [&self.nominal, &self.saturation, &self.background] {
            put(stream.len() as u64);
            for a in stream.iter() {
                put(a.due_ns);
                put(a.user as u64);
                put(a.set as u64);
            }
        }
        put(self.deltas.len() as u64);
        for delta in &self.deltas {
            put(delta.len() as u64);
            for &(u, i) in delta {
                put(u as u64);
                put(i as u64);
            }
        }
        out
    }
}
