//! Measurement plumbing shared by every workload: outside spans timed
//! from the benchmark's own code, order statistics, peak memory, the
//! correctness tally and the metric list a run reports.

use std::time::Instant;

/// Spans recorded around the public calls the benchmark makes, on one
/// thread, so they are disjoint by construction. `covered / wall` shows
/// how much of the interval the named calls account for.
pub struct Spans {
    t0: Instant,
    spans: Vec<(&'static str, f64)>,
}

impl Spans {
    /// Starts a new interval at the current instant.
    pub fn start() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.spans.push((name, t.elapsed().as_secs_f64()));
        r
    }

    /// Seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d)
            .sum()
    }

    /// Seconds covered by all spans.
    pub fn covered(&self) -> f64 {
        self.spans.iter().map(|(_, d)| d).sum()
    }

    /// Seconds since [`Spans::start`].
    pub fn wall(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Appends every span of `other` (an interval nested in this one).
    pub fn absorb(&mut self, other: &Spans) {
        self.spans.extend_from_slice(&other.spans);
    }
}

/// Seconds of set-up repetitions in each slot: at the start, before
/// every pass and at the end of a run.
const SETUP_SLOT_S: f64 = 0.1;

/// Set-up repetitions a run makes at least.
const MIN_SETUPS: usize = 3;

/// One set-up repetition: its set-up wall time and kept value.
type Rep<'a, U> = Box<dyn FnMut(&mut Spans) -> Result<(f64, U), String> + 'a>;

/// Set-up repetitions spread over a run. The host's speed changes from
/// one second to the next (a fixed loop took 7.8 ms or 12.2 ms in
/// stretches of 0.5–1.5 s), so repetitions made back to back would all
/// see one speed and `setup_s` would take whichever the run began in.
/// Made in slots at the start, between passes and at the end, they see
/// several. A set-up longer than a slot is repeated only to reach
/// [`MIN_SETUPS`].
pub struct Setup<'a, U> {
    rep: Rep<'a, U>,
    /// Each repetition's set-up wall time (`setup_s` is their median)
    /// and spans.
    reps: Vec<(f64, Spans)>,
    /// Seconds the last repetition took, teardown included.
    last_s: f64,
}

impl<'a, U> Setup<'a, U> {
    /// `setup` is what a repetition times; `teardown` then turns its
    /// value into the kept one (ending what only set-up needed), in the
    /// same repetition's spans but outside its set-up time.
    pub fn new<T: 'a>(
        mut setup: impl FnMut(&mut Spans) -> Result<T, String> + 'a,
        mut teardown: impl FnMut(T, &mut Spans) -> Result<U, String> + 'a,
    ) -> Self {
        Setup {
            rep: Box::new(move |spans| {
                let value = setup(spans)?;
                let wall = spans.wall();
                Ok((wall, teardown(value, spans)?))
            }),
            reps: Vec::new(),
            last_s: 0.0,
        }
    }

    /// Makes one repetition and returns its kept value.
    pub fn once(&mut self) -> Result<U, String> {
        let mut spans = Spans::start();
        let (wall, value) = (self.rep)(&mut spans)?;
        self.last_s = spans.wall();
        self.reps.push((wall, spans));
        Ok(value)
    }

    /// One slot: repetitions for about [`SETUP_SLOT_S`], another only
    /// if one as long as the last ends in time.
    pub fn slot(&mut self) -> Result<(), String> {
        let clock = Instant::now();
        while clock.elapsed().as_secs_f64() + self.last_s <= SETUP_SLOT_S {
            self.once()?;
        }
        Ok(())
    }

    /// Seconds the repetitions still owed to [`MIN_SETUPS`] will take.
    #[allow(clippy::cast_precision_loss)]
    pub fn owed_s(&self) -> f64 {
        MIN_SETUPS.saturating_sub(self.reps.len()) as f64 * self.last_s
    }

    /// Ends the run's set-up: a last slot, then the repetitions still
    /// owed. Returns every repetition.
    pub fn finish(mut self) -> Result<Vec<(f64, Spans)>, String> {
        self.slot()?;
        while self.reps.len() < MIN_SETUPS {
            self.once()?;
        }
        Ok(self.reps)
    }
}

/// Runs `pass(traced)` for about `seconds` (what is left of the run
/// after set-up). Untraced, it makes at least two passes: a median needs
/// two samples, and `proof_bound`'s pass alone takes most of a run.
/// Traced, it makes untraced passes for the first half (at least one,
/// the baseline of the tracing overhead), then traced passes (at least
/// two, so the traced exact counts are compared with each other).
/// Another pass starts only if one as long as the last ends in time.
/// Returns the passes and how many of them are untraced.
pub fn run_passes<P>(
    seconds: f64,
    trace: bool,
    mut pass: impl FnMut(bool) -> Result<P, String>,
) -> Result<(Vec<P>, usize), String> {
    let clock = Instant::now();
    let fits = |last: f64, until: f64| clock.elapsed().as_secs_f64() + last <= until;
    let (min, until) = if trace {
        (1, seconds / 2.0)
    } else {
        (2, seconds)
    };
    let mut passes = Vec::new();
    let mut last = 0.0;
    while passes.len() < min || fits(last, until) {
        let t = Instant::now();
        passes.push(pass(false)?);
        last = t.elapsed().as_secs_f64();
    }
    let untraced = passes.len();
    while trace && (passes.len() < untraced + 2 || fits(last, seconds)) {
        let t = Instant::now();
        passes.push(pass(true)?);
        last = t.elapsed().as_secs_f64();
    }
    Ok((passes, untraced))
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest rank (1-based) of percentile `p` (0–100] among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// The tail latency of operations grouped by kind (one group per netlist
/// or circuit): the highest percentile of a fixed ladder that has at
/// least ten samples beyond it, with its label. The rung is chosen for
/// `guaranteed` samples, the count every run reaches, not for the count
/// this run happened to reach, so that a run with one pass more does
/// not report another percentile. When no rung has ten samples beyond
/// it, the median latency of the slowest kind (label `slowest`): the
/// maximum of a handful of samples would only pick the noisiest one.
pub fn tail(groups: &[Vec<f64>], guaranteed: usize) -> (f64, String) {
    const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
    let mut v: Vec<f64> = groups.iter().flatten().copied().collect();
    v.sort_by(f64::total_cmp);
    if v.len() >= guaranteed {
        for p in LADDER {
            if nearest_rank(guaranteed, p) + 10 <= guaranteed {
                let rank = nearest_rank(v.len(), p);
                return (v[rank - 1], format!("p{p}"));
            }
        }
    }
    let slowest = groups.iter().map(|g| median(g)).fold(0.0, f64::max);
    (slowest, "slowest".to_string())
}

/// Ratio that reads 0 instead of NaN on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The correctness tally of one run: operations attempted, those that
/// failed a check, and every failure message.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    failed_ops: u64,
    run_failed: bool,
    pub errors: Vec<String>,
}

impl Checks {
    /// Counts one operation; it fails when `errors` is non-empty.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed_ops += 1;
            self.errors.extend(errors);
        }
    }

    /// A check over the whole run (determinism, real-work guards, the
    /// trace's coverage): failing it fails every operation of the run.
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.run_failed = true;
            self.errors.push(msg());
        }
    }

    /// Operations counted as failed.
    pub fn failed(&self) -> u64 {
        if self.run_failed {
            self.attempted.max(1)
        } else {
            self.failed_ops
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    telemetry::json_escaped(&m.name),
                    m.value,
                    telemetry::json_escaped(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// SplitMix64: the seed-derivation mix for every seeded choice.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, for comparing outputs across repetitions.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 of 40 is rank 30, leaving exactly 10 beyond it.
        assert_eq!(tail(&[v.clone()], 40), (30.0, "p75".to_string()));
        // The rung follows the guaranteed count: 80 samples would allow
        // p90, but with 40 guaranteed it stays p75 (rank 60 of 80).
        let w: Vec<f64> = (1..=80).map(f64::from).collect();
        assert_eq!(tail(&[w], 40), (60.0, "p75".to_string()));
        assert_eq!(tail(&[v], 39).1, "slowest");
        let few = [vec![1.0, 2.0, 9.0], vec![4.0, 5.0, 6.0]];
        assert_eq!(tail(&few, 6), (5.0, "slowest".to_string()));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
