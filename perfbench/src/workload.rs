//! The three workloads: their shape, the seeded command stream, and the
//! oracles answers are checked against.
//!
//! Command `t` of a run is a pure function of `(seed, t)`, so the
//! checker can regenerate any earlier upsert to confirm that a value a
//! lookup returned was really written to that key.

use crate::trace::BULK_TAG;
use eris_column::scan::AggregateResult;
use eris_core::prelude::Aggregate;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointZipf,
    IngestUniform,
    ScanOlap,
}

/// One workload at one size.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Keys of the index (point-zipf, ingest-uniform) or rows of the
    /// column (scan-olap).
    pub size: u64,
    /// Keys of scan-olap's side index (its write stream).
    pub side_keys: u64,
    /// Closed-loop window per connection: commands outstanding until
    /// complete.
    pub window: usize,
    /// Pumps run before the measured window starts.
    pub warmup_pumps: u64,
    /// Leading pumps of the window over which count and virtual-clock
    /// metrics are taken, so they repeat exactly for a seed.
    pub det_pumps: u64,
    /// Balancer on (MovingAverage(8), `BALANCE_PERIOD_S`).
    pub balance: bool,
}

/// Balancer adaption period, virtual seconds: short enough that the
/// balancer runs several cycles in a run.
pub const BALANCE_PERIOD_S: f64 = 0.002;

pub const WORKLOADS: [&str; 3] = ["point-zipf", "ingest-uniform", "scan-olap"];

impl Spec {
    /// The benchmark's sizes.  `small` shrinks data and windows for the
    /// self-check, which runs every workload several times.
    pub fn named(name: &str, small: bool) -> Option<Spec> {
        let shrink = |full: u64, small_v: u64| if small { small_v } else { full };
        let spec = match name {
            "point-zipf" => Spec {
                name: "point-zipf",
                kind: Kind::PointZipf,
                size: shrink(1 << 22, 1 << 16),
                side_keys: 0,
                window: 1024,
                warmup_pumps: shrink(150, 50),
                det_pumps: shrink(250, 200),
                balance: true,
            },
            "ingest-uniform" => Spec {
                name: "ingest-uniform",
                kind: Kind::IngestUniform,
                size: shrink(1 << 22, 1 << 16),
                side_keys: 0,
                window: 1024,
                warmup_pumps: shrink(60, 50),
                det_pumps: shrink(100, 200),
                balance: true,
            },
            "scan-olap" => Spec {
                name: "scan-olap",
                kind: Kind::ScanOlap,
                size: shrink(1 << 22, 1 << 16),
                side_keys: 1 << 16,
                window: 8,
                warmup_pumps: shrink(30, 30),
                // Scans differ in cost by seed (selectivity, aggregate),
                // so the virtual-clock prefix covers ~17 s of scans.
                det_pumps: shrink(1000, 100),
                // The side index only gives the workload a write stream;
                // balancing it would add journal traffic the workload is
                // meant to keep near zero.
                balance: false,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Keys per point command.
    pub fn keys_per_cmd(&self) -> usize {
        match self.kind {
            Kind::PointZipf | Kind::ScanOlap => 8,
            Kind::IngestUniform => 32,
        }
    }
}

/// The value a bulk load stores under `key`.
pub fn bulk_value(key: u64) -> u64 {
    BULK_TAG | key
}

/// One generated command, before it is framed.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Lookup(Vec<u64>),
    /// Upserted keys; every pair's value is the command's ticket.
    Upsert(Vec<u64>),
    Scan {
        lo: u64,
        hi: u64,
        agg: Aggregate,
    },
}

/// SplitMix64: the per-command random stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf ranks over `[0, n)`, unscrambled: rank 0 (key 0) is hottest, so
/// the hot keys pile onto the low partitions.  Gray et al.'s
/// rejection-free sampler ("Quickly generating billion-record synthetic
/// databases"), one `powf` per key.
#[derive(Debug, Clone, Copy)]
struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let zeta = |n: u64| -> f64 {
            let head = n.min(10_000);
            let mut z: f64 = (1..=head).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            if n > head {
                z += ((n as f64).powf(1.0 - theta) - (head as f64).powf(1.0 - theta))
                    / (1.0 - theta);
            }
            z
        };
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    fn sample(&self, rng: &mut Mix) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64 % self.n
    }
}

/// Column values are uniform in `[0, VALUE_SPAN)`.
const VALUE_SPAN: u64 = 1 << 32;

/// The seeded command stream of one workload.
pub struct Generator {
    spec: Spec,
    seed: u64,
    zipf: Zipf,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Generator {
            spec: spec.clone(),
            seed,
            zipf: Zipf::new(spec.size.max(2), 0.99),
        }
    }

    /// Command `ticket` (tickets start at 1).
    pub fn command(&self, ticket: u64) -> Op {
        let mut rng = Mix(self.seed ^ ticket.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let roll = rng.below(100);
        let n = self.spec.keys_per_cmd();
        match self.spec.kind {
            Kind::PointZipf => {
                let keys = distinct(n, || self.zipf.sample(&mut rng));
                if roll < 90 {
                    Op::Lookup(keys)
                } else {
                    Op::Upsert(keys)
                }
            }
            Kind::IngestUniform => {
                let size = self.spec.size;
                let keys = distinct(n, || rng.below(size));
                if roll < 80 {
                    Op::Upsert(keys)
                } else {
                    Op::Lookup(keys)
                }
            }
            Kind::ScanOlap => {
                if roll < 80 {
                    // Selectivity log-uniform in [0.1%, 50%].
                    let sel = (0.001f64.ln() + rng.unit() * (0.5f64.ln() - 0.001f64.ln())).exp();
                    let width = ((VALUE_SPAN as f64) * sel) as u64;
                    let lo = rng.below(VALUE_SPAN - width);
                    let agg = match rng.below(3) {
                        0 => Aggregate::Sum,
                        1 => Aggregate::Count,
                        _ => Aggregate::MinMax,
                    };
                    Op::Scan {
                        lo,
                        hi: lo + width,
                        agg,
                    }
                } else {
                    let side = self.spec.side_keys;
                    Op::Upsert(distinct(n, || rng.below(side)))
                }
            }
        }
    }

    /// The column scan-olap loads, seeded independently of the commands.
    pub fn column(&self) -> Vec<u64> {
        let mut rng = Mix(self.seed ^ 0xC01C_0FFE);
        (0..self.spec.size).map(|_| rng.below(VALUE_SPAN)).collect()
    }
}

/// `n` distinct draws from `draw`.
fn distinct(n: usize, mut draw: impl FnMut() -> u64) -> Vec<u64> {
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = draw();
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// Scan oracle: the column sorted, with wrapping prefix sums.
pub struct ScanOracle {
    sorted: Vec<u64>,
    prefix: Vec<u64>,
}

impl ScanOracle {
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        let mut prefix = Vec::with_capacity(values.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for v in &values {
            acc = acc.wrapping_add(*v);
            prefix.push(acc);
        }
        ScanOracle {
            sorted: values,
            prefix,
        }
    }

    /// The aggregate of `agg` over values in `[lo, hi)`.
    pub fn answer(&self, lo: u64, hi: u64, agg: Aggregate) -> AggregateResult {
        let a = self.sorted.partition_point(|v| *v < lo);
        let b = self.sorted.partition_point(|v| *v < hi);
        match agg {
            Aggregate::Count => AggregateResult::Count((b - a) as u64),
            Aggregate::Sum => AggregateResult::Sum(self.prefix[b].wrapping_sub(self.prefix[a])),
            Aggregate::MinMax => {
                AggregateResult::MinMax((b > a).then(|| (self.sorted[a], self.sorted[b - 1])))
            }
        }
    }
}

/// Fold one AEU's partial aggregate into the running answer; `None`
/// when the partials are of different kinds, which no valid answer is.
pub fn combine(acc: Option<AggregateResult>, r: AggregateResult) -> Option<AggregateResult> {
    use AggregateResult::{Count, MinMax, Sum};
    match (acc, r) {
        (None, r) => Some(r),
        (Some(Count(a)), Count(b)) => Some(Count(a + b)),
        (Some(Sum(a)), Sum(b)) => Some(Sum(a.wrapping_add(b))),
        (Some(MinMax(a)), MinMax(b)) => Some(MinMax(match (a, b) {
            (None, x) | (x, None) => x,
            (Some((al, ah)), Some((bl, bh))) => Some((al.min(bl), ah.max(bh))),
        })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_are_a_function_of_seed_and_ticket() {
        let spec = Spec::named("point-zipf", true).unwrap();
        let a = Generator::new(&spec, 7);
        let b = Generator::new(&spec, 7);
        let c = Generator::new(&spec, 8);
        assert_eq!(a.command(42), b.command(42));
        assert!((1..50).any(|t| a.command(t) != c.command(t)));
    }

    #[test]
    fn oracle_matches_a_linear_scan() {
        let values: Vec<u64> = vec![5, 1, 9, 3, 3, 7];
        let o = ScanOracle::new(values.clone());
        let m: Vec<u64> = values
            .iter()
            .copied()
            .filter(|v| (3..8).contains(v))
            .collect();
        assert_eq!(o.answer(3, 8, Aggregate::Count), AggregateResult::Count(4));
        assert_eq!(
            o.answer(3, 8, Aggregate::Sum),
            AggregateResult::Sum(m.iter().sum())
        );
        assert_eq!(
            o.answer(3, 8, Aggregate::MinMax),
            AggregateResult::MinMax(Some((3, 7)))
        );
        assert_eq!(
            o.answer(10, 20, Aggregate::MinMax),
            AggregateResult::MinMax(None)
        );
    }
}
