//! Seeded request generators. Every request a run sends is a pure function
//! of the workload, the seed and the request's index, so every run of a
//! workload at a seed sends identical requests and two commits do identical
//! work. Each workload repeats a fixed mix in short blocks (only the order
//! inside a block and the parameters within a class are seeded), so any
//! prefix a timed window reaches has the same composition whatever the seed.

use std::borrow::Cow;
use std::collections::HashSet;

/// The traffic mixes the benchmark runs against `clb serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A few hundred distinct small bodies answered once in set-up, then
    /// replayed: every timed request is a response-cache hit.
    WarmHits,
    /// Every request a distinct layer on `/v1/plan`, `/v1/sweep` or
    /// `/v1/bound`: the search, plan and response caches all miss.
    ColdLayers,
    /// Custom `/v1/network` bodies of 32–256 layers drawn from a 16-shape
    /// pool that set-up plans: plan-cache hits, response-cache misses.
    NetworkIngest,
    /// Layer-mode `/v1/dse` sweeps, legacy grids beside staged grids that
    /// rotate through the four objectives.
    DseSweeps,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmHits,
        Workload::ColdLayers,
        Workload::NetworkIngest,
        Workload::DseSweeps,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHits => "warm_hits",
            Workload::ColdLayers => "cold_layers",
            Workload::NetworkIngest => "network_ingest",
            Workload::DseSweeps => "dse_sweeps",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One in this many timed responses is checked against an in-process
    /// `api::dispatch` of its body (1 = every response). Cold responses
    /// cost as much to recompute as to serve, so the cold workloads check
    /// a seeded sample.
    #[must_use]
    pub fn check_every(self) -> u64 {
        match self {
            Workload::WarmHits => 1,
            Workload::ColdLayers => 48,
            Workload::NetworkIngest => 16,
            Workload::DseSweeps => 16,
        }
    }

    /// Answered requests after which the server's peak resident set is
    /// read: a fixed amount of work, so `peak_rss_mib` does not depend on
    /// how fast the host ran. It is past the point where the server's
    /// 1,024-entry response cache has filled, and within the first half
    /// of a 20-second window on a slow host.
    #[must_use]
    pub fn rss_checkpoint(self) -> u64 {
        match self {
            Workload::WarmHits => 150_000,
            Workload::ColdLayers => 20_000,
            Workload::NetworkIngest => 2_000,
            Workload::DseSweeps => 2_400,
        }
    }

    /// Completed requests per slice of a timed window: a whole number of
    /// the workload's mix blocks, about half a second undisturbed, so
    /// every slice does the same work and holds several host-speed probes.
    #[must_use]
    pub fn slice_requests(self) -> usize {
        match self {
            Workload::WarmHits => 16_384,
            Workload::ColdLayers => 2_400,
            Workload::NetworkIngest => 192,
            Workload::DseSweeps => 240,
        }
    }

    /// Requests the traced run sends: a fixed count, so every count it
    /// reports repeats exactly on an unchanged program.
    #[must_use]
    pub fn traced_requests(self) -> u64 {
        match self {
            Workload::WarmHits => 60_000,
            Workload::ColdLayers => 9_000,
            Workload::NetworkIngest => 800,
            Workload::DseSweeps => 1_200,
        }
    }
}

/// One HTTP request of a workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// The endpoint, e.g. `/v1/plan`.
    pub path: &'static str,
    /// The JSON body.
    pub body: String,
}

impl Request {
    fn new(path: &'static str, body: String) -> Request {
        Request { path, body }
    }

    /// The request's bytes on the wire (HTTP/1.1, keep-alive).
    #[must_use]
    pub fn wire(&self) -> Vec<u8> {
        clb_service::request_bytes("POST", self.path, &self.body, true)
    }
}

/// The SplitMix64 finalizer: a bijective mix of 64 bits.
#[must_use]
pub fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pure per-index draw: independent streams for independent decisions.
fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ index)
}

/// A small sequential generator for the pre-rendered lists.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items, kept in their original (ascending) order.
    fn subset<T: Copy>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut picked: Vec<usize> = (0..items.len()).collect();
        self.shuffle(&mut picked);
        picked.truncate(k);
        picked.sort_unstable();
        picked.into_iter().map(|i| items[i]).collect()
    }
}

const STREAM_WARM: u64 = 1;
const STREAM_ORDER: u64 = 2;
const STREAM_COLD: u64 = 3;
const STREAM_INGEST_BLOCK: u64 = 4;
const STREAM_INGEST_LAYER: u64 = 5;
const STREAM_DSE: u64 = 6;
const STREAM_SAMPLE: u64 = 7;

/// `mem_kib` values for the memory-parameterised routes (implementation 1
/// has 66.5 KiB).
const MEM_KIB: [f64; 5] = [33.25, 66.5, 99.75, 133.0, 199.5];

/// Mixed radices of the `cold_layers` tuple (lowest digit first):
/// implementation-or-memory, batch (1–3), kernel (1 or 3), stride (1–2),
/// output size (16–39), input channels (64–191), output channels (64–191).
const COLD_RADICES: [u64; 7] = [5, 3, 2, 2, 24, 128, 128];

/// The 16 layer shapes `network_ingest` draws from:
/// `(co, ci, input size, kernel, stride)`, all at batch 1.
const INGEST_POOL: [(usize, usize, usize, usize, usize); 16] = [
    (64, 64, 56, 3, 1),
    (128, 64, 56, 3, 2),
    (128, 128, 28, 3, 1),
    (256, 128, 28, 3, 2),
    (256, 256, 14, 3, 1),
    (512, 256, 14, 3, 2),
    (512, 512, 7, 3, 1),
    (64, 256, 56, 1, 1),
    (256, 64, 56, 1, 1),
    (128, 512, 28, 1, 1),
    (512, 128, 28, 1, 1),
    (256, 1024, 14, 1, 1),
    (1024, 256, 14, 1, 1),
    (96, 32, 28, 5, 1),
    (192, 96, 14, 5, 1),
    (48, 24, 56, 7, 2),
];

/// Layer counts of one `network_ingest` block (2–20 KB bodies).
const INGEST_LAYER_COUNTS: [usize; 8] = [32, 64, 96, 128, 160, 192, 224, 256];

/// The small layers `dse_sweeps` sweeps: `(co, ci, size, k)` at batch 1.
const DSE_LAYERS: [(usize, usize, usize, usize); 3] =
    [(64, 64, 14, 3), (128, 64, 7, 3), (32, 32, 14, 1)];

/// Grid axis values (every combination validates). The staged grid is
/// their full product, 1,024 candidates; over the three layers that is
/// 3,072 `(layer, arch)` plans, which fit the server's 4,096-entry plan
/// cache: the first sweeps plan cold, the rest evaluate on warm plans.
const PE_DIMS: [usize; 4] = [8, 16, 24, 32];
const GROUPS: [usize; 2] = [1, 2];
const LREGS: [usize; 4] = [16, 32, 64, 128];
const IGBUFS: [usize; 4] = [256, 640, 1024, 1600];
const WGBUFS: [usize; 2] = [256, 1024];

const OBJECTIVES: [&str; 4] = ["cycles", "traffic", "energy", "pareto"];

/// Set-up bodies per `warm_hits` route.
const WARM_LAYER_BODIES: usize = 72;
const WARM_SIMULATE_BODIES: usize = 48;
const WARM_DSE_BODIES: usize = 24;
/// Seeded permutations of the `warm_hits` pool in one replay cycle.
const WARM_EPOCHS: usize = 16;

/// The request source of one `(workload, seed)`.
pub struct Generator {
    workload: Workload,
    seed: u64,
    setup: Vec<Request>,
    /// `warm_hits`: the replay order over `setup`.
    order: Vec<usize>,
    /// `cold_layers`: the step and offset of the index permutation.
    cold_step: u64,
    cold_offset: u64,
}

impl Generator {
    /// Builds the generator; everything it will produce is fixed here.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut generator = Generator {
            workload,
            seed,
            setup: Vec::new(),
            order: Vec::new(),
            cold_step: 1,
            cold_offset: 0,
        };
        match workload {
            Workload::WarmHits => {
                generator.setup = warm_pool(seed);
                let mut rng = Rng::new(seed, STREAM_ORDER);
                for _ in 0..WARM_EPOCHS {
                    let mut epoch: Vec<usize> = (0..generator.setup.len()).collect();
                    rng.shuffle(&mut epoch);
                    generator.order.extend(epoch);
                }
            }
            Workload::ColdLayers => {
                let m = cold_space();
                let mut step = (draw(seed, STREAM_COLD, 0) % m) | 1;
                while gcd(step, m) != 1 {
                    step += 2;
                }
                generator.cold_step = step;
                generator.cold_offset = draw(seed, STREAM_COLD, 1) % m;
            }
            Workload::NetworkIngest => {
                let layers: Vec<String> = INGEST_POOL
                    .iter()
                    .enumerate()
                    .map(|(j, &shape)| ingest_layer(j, shape))
                    .collect();
                generator.setup = vec![Request::new(
                    "/v1/network",
                    format!(
                        r#"{{"net":{{"name":"ingest-pool","batch":1,"layers":[{}]}}}}"#,
                        layers.join(",")
                    ),
                )];
            }
            Workload::DseSweeps => {}
        }
        generator
    }

    /// Bodies answered once during set-up, before any timing.
    #[must_use]
    pub fn setup(&self) -> &[Request] {
        &self.setup
    }

    /// Timed request `index`.
    #[must_use]
    pub fn request(&self, index: u64) -> Cow<'_, Request> {
        match self.workload {
            Workload::WarmHits => {
                let at = self.order[(index % self.order.len() as u64) as usize];
                Cow::Borrowed(&self.setup[at])
            }
            Workload::ColdLayers => Cow::Owned(self.cold_request(index)),
            Workload::NetworkIngest => Cow::Owned(self.ingest_request(index)),
            Workload::DseSweeps => Cow::Owned(self.dse_request(index)),
        }
    }

    /// Whether timed request `index` belongs to the seeded sample whose
    /// responses are checked byte for byte.
    #[must_use]
    pub fn sampled(&self, index: u64) -> bool {
        draw(self.seed, STREAM_SAMPLE, index).is_multiple_of(self.workload.check_every())
    }

    /// `cold_layers` request `index`: routes rotate plan → sweep → bound,
    /// and the layer tuple is digit-decoded from an affine permutation of
    /// the index, so no two requests share a layer.
    fn cold_request(&self, index: u64) -> Request {
        let m = cold_space();
        let x = (u128::from(self.cold_step) * u128::from(index) + u128::from(self.cold_offset))
            % u128::from(m);
        let mut x = x as u64;
        let mut digits = [0u64; COLD_RADICES.len()];
        for (digit, radix) in digits.iter_mut().zip(COLD_RADICES) {
            *digit = x % radix;
            x /= radix;
        }
        let [choice, batch, kernel, stride, size, ci, co] = digits;
        let (batch, k, stride) = (batch + 1, [1, 3][kernel as usize], stride + 1);
        let (size, ci, co) = (size + 16, ci + 64, co + 64);
        let layer = format!(
            r#""co":{co},"size":{size},"ci":{ci},"k":{k},"stride":{stride},"batch":{batch}"#
        );
        match index % 3 {
            0 => Request::new(
                "/v1/plan",
                format!(r#"{{{layer},"implem":{}}}"#, choice + 1),
            ),
            route => Request::new(
                if route == 1 { "/v1/sweep" } else { "/v1/bound" },
                format!(r#"{{{layer},"mem_kib":{}}}"#, MEM_KIB[choice as usize]),
            ),
        }
    }

    /// `network_ingest` request `index`: blocks of eight bodies cover every
    /// layer count once, in seeded order.
    fn ingest_request(&self, index: u64) -> Request {
        let block = index / INGEST_LAYER_COUNTS.len() as u64;
        let mut counts = INGEST_LAYER_COUNTS;
        Rng::new(self.seed ^ mix(block), STREAM_INGEST_BLOCK).shuffle(&mut counts);
        let count = counts[(index % INGEST_LAYER_COUNTS.len() as u64) as usize];
        let layers: Vec<String> = (0..count)
            .map(|j| {
                let pick = draw(self.seed ^ mix(index), STREAM_INGEST_LAYER, j as u64);
                ingest_layer(j, INGEST_POOL[(pick % INGEST_POOL.len() as u64) as usize])
            })
            .collect();
        Request::new(
            "/v1/network",
            format!(
                r#"{{"net":{{"name":"ingest-{index}","batch":1,"layers":[{}]}}}}"#,
                layers.join(",")
            ),
        )
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn cold_space() -> u64 {
    COLD_RADICES.iter().product()
}

fn ingest_layer(
    j: usize,
    (co, ci, size, kernel, stride): (usize, usize, usize, usize, usize),
) -> String {
    format!(
        r#"{{"name":"l{j}","co":{co},"ci":{ci},"size":{size},"kernel":{kernel},"stride":{stride}}}"#
    )
}

fn list(values: &[usize]) -> String {
    let items: Vec<String> = values.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

fn push_unique(out: &mut Vec<Request>, seen: &mut HashSet<Request>, request: Request) {
    if seen.insert(request.clone()) {
        out.push(request);
    }
}

/// The `warm_hits` pool: 72 bodies each on `/v1/bound`, `/v1/sweep` and
/// `/v1/plan`, 48 explicit-tiling `/v1/simulate`s, the five network
/// presets at two batches (every response ≤ 128 KiB, so cacheable) and 24
/// legacy `/v1/dse` sweeps of 8–16 candidates.
fn warm_pool(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, STREAM_WARM);
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for path in ["/v1/bound", "/v1/sweep", "/v1/plan"] {
        let start = pool.len();
        while pool.len() - start < WARM_LAYER_BODIES {
            let layer = format!(
                r#""co":{},"size":{},"ci":{},"k":{},"batch":{}"#,
                16 + rng.below(113),
                7 + rng.below(22),
                16 + rng.below(113),
                rng.pick(&[1, 3]),
                1 + rng.below(3)
            );
            let body = if path == "/v1/plan" {
                format!(r#"{{{layer},"implem":{}}}"#, 1 + rng.below(5))
            } else {
                format!(r#"{{{layer},"mem_kib":{}}}"#, rng.pick(&MEM_KIB))
            };
            push_unique(&mut pool, &mut seen, Request::new(path, body));
        }
    }
    let start = pool.len();
    while pool.len() - start < WARM_SIMULATE_BODIES {
        let body = format!(
            r#"{{"co":{},"size":{},"ci":{},"batch":1,"implem":1,"tiling":{{"b":1,"z":{},"y":7,"x":{}}}}}"#,
            32 * (1 + rng.below(4)),
            rng.pick(&[14, 28]),
            16 + rng.below(113),
            rng.pick(&[8, 16]),
            rng.pick(&[7, 14])
        );
        push_unique(&mut pool, &mut seen, Request::new("/v1/simulate", body));
    }
    for net in ["vgg16", "alexnet", "resnet50", "inception", "fc"] {
        for batch in [1, 2] {
            let body = format!(r#"{{"net":"{net}","batch":{batch}}}"#);
            push_unique(&mut pool, &mut seen, Request::new("/v1/network", body));
        }
    }
    let start = pool.len();
    while pool.len() - start < WARM_DSE_BODIES {
        let (co, ci, size, k) = rng.pick(&DSE_LAYERS);
        let igbufs = 2 + rng.below(3);
        let body = format!(
            r#"{{"co":{co},"size":{size},"ci":{ci},"k":{k},"batch":1,"grid":{{"pe_rows":{},"lreg_entries_per_pe":{},"igbuf_entries":{}}}}}"#,
            list(&rng.subset(&PE_DIMS, 2)),
            list(&rng.subset(&LREGS, 2)),
            list(&rng.subset(&IGBUFS, igbufs)),
        );
        push_unique(&mut pool, &mut seen, Request::new("/v1/dse", body));
    }
    pool
}

/// `dse_sweeps` requests per block: every (layer, objective) pair once as
/// a staged sweep and every layer once as a legacy sweep.
const DSE_BLOCK: u64 = (DSE_LAYERS.len() * (1 + OBJECTIVES.len())) as u64;

impl Generator {
    /// `dse_sweeps` request `index`: blocks of [`DSE_BLOCK`] sweeps in
    /// seeded order. Staged sweeps cover the full 1,024-candidate grid;
    /// legacy sweeps a 128-candidate sub-grid (the first group-rows, WGBuf
    /// and two IGBuf values). Each body also names two grid points as
    /// explicit baseline candidates, picked by the block number: the sweep
    /// dedups them, so they cost nothing, but no two bodies (and so no two
    /// response-cache keys) are alike.
    fn dse_request(&self, index: u64) -> Request {
        let block = index / DSE_BLOCK;
        let mut slots: Vec<(usize, Option<&str>)> = (0..DSE_LAYERS.len())
            .flat_map(|layer| {
                std::iter::once(None)
                    .chain(OBJECTIVES.map(Some))
                    .map(move |objective| (layer, objective))
            })
            .collect();
        Rng::new(self.seed ^ mix(block), STREAM_DSE).shuffle(&mut slots);
        let (layer, objective) = slots[(index % DSE_BLOCK) as usize];
        let (co, ci, size, k) = DSE_LAYERS[layer];
        let axes: [Vec<usize>; 6] = match objective {
            None => [
                &PE_DIMS[..],
                &PE_DIMS,
                &GROUPS[..1],
                &LREGS,
                &IGBUFS[..2],
                &WGBUFS[..1],
            ],
            Some(_) => [&PE_DIMS[..], &PE_DIMS, &GROUPS, &LREGS, &IGBUFS, &WGBUFS],
        }
        .map(<[usize]>::to_vec);
        let points: u64 = axes.iter().map(|a| a.len() as u64).product();
        let pair = (block + draw(self.seed, STREAM_DSE, 0)) % (points * points);
        let baselines = [pair % points, pair / points].map(|point| grid_point(&axes, point));
        let grid = grid_object(&axes.each_ref().map(|a| list(a)));
        let staged = objective
            .map(|o| format!(r#","objective":"{o}","top_k":8"#))
            .unwrap_or_default();
        Request::new(
            "/v1/dse",
            format!(
                r#"{{"co":{co},"size":{size},"ci":{ci},"k":{k},"batch":1,"candidates":[{}],"grid":{grid}{staged}}}"#,
                baselines.join(",")
            ),
        )
    }
}

/// The sweepable `arch` fields, in the order of the `dse_sweeps` axes.
const DSE_AXES: [&str; 6] = [
    "pe_rows",
    "pe_cols",
    "group_rows",
    "lreg_entries_per_pe",
    "igbuf_entries",
    "wgbuf_entries",
];

/// A JSON object of the `dse_sweeps` axes with the given rendered values.
fn grid_object(values: &[String; 6]) -> String {
    let fields: Vec<String> = DSE_AXES
        .iter()
        .zip(values)
        .map(|(name, value)| format!(r#""{name}":{value}"#))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Grid point `point` (mixed-radix over `axes`) as an `arch` object.
fn grid_point(axes: &[Vec<usize>; 6], mut point: u64) -> String {
    let values = axes.each_ref().map(|axis| {
        let value = axis[(point % axis.len() as u64) as usize];
        point /= axis.len() as u64;
        value.to_string()
    });
    grid_object(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(generator: &Generator, n: u64) -> Vec<Request> {
        (0..n).map(|i| generator.request(i).into_owned()).collect()
    }

    #[test]
    fn requests_are_a_pure_function_of_workload_seed_and_index() {
        for workload in Workload::ALL {
            let a = Generator::new(workload, 7);
            let b = Generator::new(workload, 7);
            assert_eq!(a.setup(), b.setup(), "{}", workload.name());
            assert_eq!(first(&a, 64), first(&b, 64), "{}", workload.name());
            let other = Generator::new(workload, 8);
            assert_ne!(first(&a, 64), first(&other, 64), "{}", workload.name());
            let sample_a: Vec<bool> = (0..512).map(|i| a.sampled(i)).collect();
            let sample_b: Vec<bool> = (0..512).map(|i| b.sampled(i)).collect();
            assert_eq!(sample_a, sample_b);
            assert!(sample_a.iter().any(|&s| s), "{}", workload.name());
        }
    }

    #[test]
    fn pinned_requests_do_not_drift() {
        // A changed generator changes what every later comparison measures;
        // these hashes of each workload's set-up and first requests pin it.
        let fingerprint = |w: Workload| {
            let g = Generator::new(w, 1);
            let mut h = 0u64;
            for r in g.setup().iter().cloned().chain(first(&g, 32)) {
                for b in r.path.bytes().chain(r.body.bytes()) {
                    h = mix(h ^ u64::from(b));
                }
            }
            h
        };
        let prints: Vec<u64> = Workload::ALL.into_iter().map(fingerprint).collect();
        assert_eq!(prints, PINNED_FINGERPRINTS, "{prints:#x?}");
    }

    const PINNED_FINGERPRINTS: [u64; 4] = [
        0x2b9a_a3ed_1969_d9d1,
        0x5779_3a1b_285e_5b16,
        0xca54_570f_c955_02d1,
        0x8134_41f9_b4a0_e609,
    ];

    #[test]
    fn cold_layers_never_repeat_a_layer() {
        let generator = Generator::new(Workload::ColdLayers, 3);
        let bodies: HashSet<String> = (0..30_000)
            .map(|i| {
                let r = generator.request(i);
                // The layer tuple without the route-specific tail.
                r.body
                    .split(r#","implem""#)
                    .next()
                    .unwrap()
                    .split(r#","mem_kib""#)
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(bodies.len(), 30_000);
    }

    #[test]
    fn blocks_keep_the_mix_fixed() {
        let ingest = Generator::new(Workload::NetworkIngest, 11);
        let mut counts: Vec<usize> = (8..16)
            .map(|i| ingest.request(i).body.matches(r#""co""#).count())
            .collect();
        counts.sort_unstable();
        assert_eq!(counts, INGEST_LAYER_COUNTS);

        let dse = Generator::new(Workload::DseSweeps, 11);
        let block: Vec<Request> = first(&dse, DSE_BLOCK);
        for objective in OBJECTIVES {
            let with = block.iter().filter(|r| r.body.contains(objective)).count();
            assert_eq!(with, DSE_LAYERS.len(), "{objective}");
        }
        let legacy = block
            .iter()
            .filter(|r| !r.body.contains("objective"))
            .count();
        assert_eq!(legacy, DSE_LAYERS.len());
        let distinct: HashSet<Request> = first(&dse, 40 * DSE_BLOCK).into_iter().collect();
        assert_eq!(distinct.len() as u64, 40 * DSE_BLOCK);

        let warm = Generator::new(Workload::WarmHits, 11);
        let n = warm.setup().len() as u64;
        let epoch: HashSet<Request> = (0..n).map(|i| warm.request(i).into_owned()).collect();
        assert_eq!(
            epoch.len() as u64,
            n,
            "one epoch replays every set-up body once"
        );
    }
}
