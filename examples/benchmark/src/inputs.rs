//! Workload inputs. Everything the benchmark feeds the program — subject
//! seeds, arrival times, AoA angles, scene layouts — is derived from
//! `--seed` through SplitMix64, so one seed always means one input set.

use std::collections::VecDeque;

/// The SplitMix64 generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Exponentially distributed with the given rate (mean `1 / rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PersonalizePaper,
    ServeOpen,
    ServeSaturate,
    AoaRender,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PersonalizePaper,
        Workload::ServeOpen,
        Workload::ServeSaturate,
        Workload::AoaRender,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PersonalizePaper => "personalize-paper",
            Workload::ServeOpen => "serve-open",
            Workload::ServeSaturate => "serve-saturate",
            Workload::AoaRender => "aoa-render",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tag(self) -> u64 {
        match self {
            Workload::PersonalizePaper => 1,
            Workload::ServeOpen => 2,
            Workload::ServeSaturate => 3,
            Workload::AoaRender => 4,
        }
    }
}

/// Which part of a run a subject belongs to. Streams never share seeds,
/// so a warm-up or probe subject can never turn a timed miss into a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Timed = 0,
    /// Set-up subjects and the quality cohort: the same at every `--seed`,
    /// so set-up does the same work and the quality metric scores the same
    /// heads in every run.
    Fixed = 1,
    Probe = 2,
}

const INDEX_BITS: u32 = 40;
const STREAM_SHIFT: u32 = INDEX_BITS;
const WORKLOAD_SHIFT: u32 = 44;

/// Subject seeds of one workload at one `--seed`.
///
/// A subject seed is `tag << 44 | stream << 40 | (base + i) mod 2^40`, with
/// `base = 0` on the fixed stream, so seeds of different workloads or
/// streams are disjoint by construction and stay below 2^47 (the serve
/// protocol carries seeds as JSON numbers, exact only up to 2^53).
#[derive(Debug, Clone)]
pub struct Subjects {
    workload: Workload,
    base: u64,
}

impl Subjects {
    pub fn new(workload: Workload, seed: u64) -> Subjects {
        let base =
            SplitMix64::new(seed ^ workload.tag().wrapping_mul(0xa076_1d64_78bd_642f)).next_u64();
        Subjects { workload, base }
    }

    pub fn seed(&self, stream: Stream, i: u64) -> u64 {
        let base = if stream == Stream::Fixed {
            0
        } else {
            self.base
        };
        (self.workload.tag() << WORKLOAD_SHIFT)
            | ((stream as u64) << STREAM_SHIFT)
            | (base.wrapping_add(i) & ((1 << INDEX_BITS) - 1))
    }
}

/// One scheduled open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds after the start of the run.
    pub due_s: f64,
    /// Subject seed.
    pub subject: u64,
    /// Connection it is written on. A subject keeps its connection, so a
    /// repeat is read by the server only after its first request finished.
    pub conn: usize,
    /// Whether this repeats an earlier subject (a scheduled cache hit).
    pub repeat: bool,
}

/// Client connections of the load generator.
pub const CONNECTIONS: usize = 2;
/// Offered rate of the open loop, requests per second.
pub const OPEN_RATE_PER_S: f64 = 5.0;
/// Every third arrival repeats a subject, when one is eligible.
const REPEAT_EVERY: usize = 3;
/// A subject is eligible for a repeat this long after its first request.
const MIN_REPEAT_GAP_S: f64 = 2.0;

/// Poisson arrivals conditioned on their count: `round(rate × seconds)`
/// arrivals whose exponential gaps are rescaled to span `seconds`. Given
/// the count, this is exactly a Poisson process, and it keeps the offered
/// rate identical across seeds.
pub fn open_schedule(subjects: &Subjects, stream: Stream, seed: u64, seconds: f64) -> Vec<Arrival> {
    let n = ((OPEN_RATE_PER_S * seconds).round() as usize).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x5ced_u64);
    let gaps: Vec<f64> = (0..=n).map(|_| rng.exponential(OPEN_RATE_PER_S)).collect();
    let total: f64 = gaps.iter().sum();
    let mut waiting: VecDeque<(f64, u64, usize)> = VecDeque::new();
    let mut fresh = 0u64;
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n);
    for (i, gap) in gaps.iter().take(n).enumerate() {
        t += gap;
        let due_s = t / total * seconds;
        let eligible = waiting
            .front()
            .is_some_and(|&(first, _, _)| first <= due_s - MIN_REPEAT_GAP_S);
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 && eligible {
            let (_, subject, conn) = waiting.pop_front().expect("front checked above");
            out.push(Arrival {
                due_s,
                subject,
                conn,
                repeat: true,
            });
        } else {
            let subject = subjects.seed(stream, fresh);
            let conn = fresh as usize % CONNECTIONS;
            fresh += 1;
            waiting.push_back((due_s, subject, conn));
            out.push(Arrival {
                due_s,
                subject,
                conn,
                repeat: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const SECONDS: f64 = 44.0;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let subjects = Subjects::new(Workload::ServeOpen, 7);
        let a = open_schedule(&subjects, Stream::Timed, 7, SECONDS);
        let b = open_schedule(
            &Subjects::new(Workload::ServeOpen, 7),
            Stream::Timed,
            7,
            SECONDS,
        );
        assert_eq!(a, b);
        let c = open_schedule(
            &Subjects::new(Workload::ServeOpen, 8),
            Stream::Timed,
            8,
            SECONDS,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn repeats_follow_their_first_request_on_the_same_connection() {
        let subjects = Subjects::new(Workload::ServeOpen, 3);
        let sched = open_schedule(&subjects, Stream::Timed, 3, SECONDS);
        assert_eq!(sched.len(), 220);
        let repeats = sched.iter().filter(|a| a.repeat).count();
        assert!(repeats > 60 && repeats <= 220 / 3, "{repeats} repeats");
        for r in sched.iter().filter(|a| a.repeat) {
            let first = sched
                .iter()
                .find(|a| a.subject == r.subject && !a.repeat)
                .expect("a repeat has a first request");
            assert!(r.due_s - first.due_s >= MIN_REPEAT_GAP_S);
            assert_eq!(r.conn, first.conn);
        }
        assert!(sched.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(sched.last().unwrap().due_s < SECONDS);
    }

    #[test]
    fn poisson_mean_rate_is_within_five_percent() {
        let mut rng = SplitMix64::new(11);
        let n = 20_000;
        let span: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let rate = n as f64 / span;
        assert!((rate - 5.0).abs() / 5.0 < 0.05, "rate {rate}");
        let sched = open_schedule(
            &Subjects::new(Workload::ServeOpen, 1),
            Stream::Timed,
            1,
            SECONDS,
        );
        let offered = sched.len() as f64 / SECONDS;
        assert!((offered - 5.0).abs() / 5.0 < 0.05, "offered {offered}");
    }

    #[test]
    fn subject_seeds_are_disjoint_across_workloads_and_streams() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            let subjects = Subjects::new(w, 42);
            for stream in [Stream::Timed, Stream::Fixed, Stream::Probe] {
                for i in 0..500 {
                    let s = subjects.seed(stream, i);
                    assert!(s < 1 << 53, "seed {s} not exact as a JSON number");
                    assert!(seen.insert(s), "seed {s} reused");
                }
            }
        }
    }

    #[test]
    fn fixed_subjects_do_not_depend_on_the_seed() {
        let (a, b) = (
            Subjects::new(Workload::AoaRender, 1),
            Subjects::new(Workload::AoaRender, 2),
        );
        assert_eq!(a.seed(Stream::Fixed, 3), b.seed(Stream::Fixed, 3));
        assert_ne!(a.seed(Stream::Timed, 3), b.seed(Stream::Timed, 3));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }
}
