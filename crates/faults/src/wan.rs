//! WAN impairment profiles for the live transports.
//!
//! A [`WanProfile`] is the live-pipeline counterpart of a [`crate::FaultPlan`]:
//! the same seeded-determinism contract (one seed, one replayable
//! impairment sequence, an all-zero profile is byte-identical to no
//! shim at all), but expressed as *path characteristics* — one-way
//! delay, jitter, rate cap, loss, reorder — instead of scheduled fabric
//! events, because the live shim sits on real sockets where there is no
//! simulated clock to schedule against.
//!
//! The three named presets are the paper's Table I testbeds, built from
//! `rftp_netsim::testbed`, so the numbers live in one place:
//!
//! | preset     | RTT      | rate      | notes                      |
//! |------------|----------|-----------|----------------------------|
//! | `roce-lan` | 0.025 ms | 40 Gbps   | back-to-back RoCE          |
//! | `ib-lan`   | 0.013 ms | 25.6 Gbps | PCIe-limited 4X QDR        |
//! | `ani-wan`  | 49 ms    | 10 Gbps   | ANL↔NERSC, residual 1e-6 loss |
//!
//! Specs extend a preset with `key=value` overrides, or build a path
//! from scratch: `ani-wan,drop=0.01`, `rtt=49ms,rate=10G,seed=7`.

use rftp_netsim::testbed::{self, Testbed};
use std::time::Duration;

/// A deterministic WAN path description for the live impairment shim.
#[derive(Debug, Clone, PartialEq)]
pub struct WanProfile {
    /// Human-readable tag (`"ani-wan"`, or `"custom"` for bare specs).
    pub name: String,
    /// One-way propagation delay (half the RTT).
    pub one_way: Duration,
    /// Uniform extra per-frame delay in `[0, jitter]`.
    pub jitter: Duration,
    /// Path rate cap in bits/s; `None` = unthrottled.
    pub rate_bps: Option<f64>,
    /// Per-data-frame drop probability.
    pub loss_p: f64,
    /// Per-data-frame probability of swapping with the next frame.
    pub reorder_p: f64,
    /// Seed for every probabilistic draw the shim makes.
    pub seed: u64,
}

impl WanProfile {
    /// The paper's 40 Gbps RoCE LAN (Table I column 2).
    pub fn roce_lan() -> WanProfile {
        WanProfile::table_one("roce-lan", &testbed::roce_lan())
    }

    /// The paper's PCIe-limited InfiniBand LAN (Table I column 1).
    pub fn ib_lan() -> WanProfile {
        WanProfile::table_one("ib-lan", &testbed::ib_lan())
    }

    /// The DOE ANI WAN path (Table I column 3): 10 Gbps, 49 ms RTT,
    /// residual microloss.
    pub fn ani_wan() -> WanProfile {
        WanProfile::table_one("ani-wan", &testbed::ani_wan())
    }

    /// The path of a Table I testbed: its one-way delay, bare-metal
    /// rate and residual loss, without jitter or reordering.
    fn table_one(name: &str, tb: &Testbed) -> WanProfile {
        WanProfile {
            name: name.into(),
            one_way: Duration::from_nanos(tb.one_way.nanos()),
            jitter: Duration::ZERO,
            rate_bps: Some(tb.bare_metal.bits_per_sec() as f64),
            loss_p: tb.loss_per_packet,
            reorder_p: 0.0,
            seed: DEFAULT_SEED,
        }
    }

    /// An unimpaired path (the identity shim).
    pub fn clean() -> WanProfile {
        WanProfile {
            name: "custom".into(),
            one_way: Duration::ZERO,
            jitter: Duration::ZERO,
            rate_bps: None,
            loss_p: 0.0,
            reorder_p: 0.0,
            seed: DEFAULT_SEED,
        }
    }

    /// Parse a `--wan` spec: a preset name, optionally followed by
    /// comma-separated `key=value` overrides, or overrides alone
    /// starting from [`WanProfile::clean`].
    ///
    /// Keys: `rtt` / `delay` (durations: `49ms`, `25us`, `1s`),
    /// `jitter`, `rate` (`10G`, `250M`, bits/s), `loss` / `drop`
    /// (probability), `reorder` (probability), `seed` (u64).
    pub fn parse(spec: &str) -> Result<WanProfile, String> {
        let mut parts = spec.split(',');
        let first = parts.next().unwrap_or("").trim();
        let mut p = match first {
            "roce-lan" => WanProfile::roce_lan(),
            "ib-lan" => WanProfile::ib_lan(),
            "ani-wan" => WanProfile::ani_wan(),
            "" => return Err("empty --wan spec".into()),
            kv if kv.contains('=') => {
                let mut p = WanProfile::clean();
                apply_kv(&mut p, kv)?;
                p
            }
            other => {
                return Err(format!(
                    "unknown WAN preset {other:?} (roce-lan, ib-lan, ani-wan, or key=value)"
                ))
            }
        };
        for kv in parts {
            apply_kv(&mut p, kv.trim())?;
        }
        Ok(p)
    }

    /// Path round trip (both directions of propagation).
    pub fn rtt(&self) -> Duration {
        self.one_way * 2
    }

    /// Bandwidth-delay product in bytes; 0 when unthrottled.
    pub fn bdp_bytes(&self) -> u64 {
        match self.rate_bps {
            Some(r) => (r / 8.0 * self.rtt().as_secs_f64()) as u64,
            None => 0,
        }
    }

    /// True when the profile changes nothing (the shim can no-op).
    pub fn is_identity(&self) -> bool {
        self.one_way.is_zero()
            && self.jitter.is_zero()
            && self.rate_bps.is_none()
            && self.loss_p == 0.0
            && self.reorder_p == 0.0
    }

    /// A fresh seeded dice stream for one shim instance. `lane`
    /// decorrelates the per-channel streams of a single profile.
    pub fn dice(&self, lane: u64) -> WanDice {
        WanDice::from_state(self.seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

const DEFAULT_SEED: u64 = 0xFA_017;

fn apply_kv(p: &mut WanProfile, kv: &str) -> Result<(), String> {
    let (k, v) = kv
        .split_once('=')
        .ok_or_else(|| format!("bad WAN option {kv:?} (expected key=value)"))?;
    match k.trim() {
        "rtt" => p.one_way = parse_duration(v)? / 2,
        "delay" | "one-way" => p.one_way = parse_duration(v)?,
        "jitter" => p.jitter = parse_duration(v)?,
        "rate" => {
            p.rate_bps = match v.trim() {
                "0" | "none" => None,
                r => Some(parse_rate(r)?),
            }
        }
        "loss" | "drop" => p.loss_p = parse_prob(v)?,
        "reorder" => p.reorder_p = parse_prob(v)?,
        "seed" => p.seed = v.trim().parse().map_err(|_| format!("bad seed {v:?}"))?,
        other => return Err(format!("unknown WAN key {other:?}")),
    }
    Ok(())
}

fn parse_duration(v: &str) -> Result<Duration, String> {
    let v = v.trim();
    let (num, scale_ns) = if let Some(n) = v.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = v.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = v.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(format!("bad duration {v:?} (use e.g. 49ms, 25us)"));
    };
    let x: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {v:?}"))?;
    if !x.is_finite() || x < 0.0 {
        return Err(format!("bad duration {v:?}"));
    }
    Ok(Duration::from_nanos((x * scale_ns) as u64))
}

fn parse_rate(v: &str) -> Result<f64, String> {
    let v = v.trim();
    let (num, mult) = match v.chars().last() {
        Some('G') | Some('g') => (&v[..v.len() - 1], 1e9),
        Some('M') | Some('m') => (&v[..v.len() - 1], 1e6),
        Some('K') | Some('k') => (&v[..v.len() - 1], 1e3),
        _ => (v, 1.0),
    };
    let x: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad rate {v:?} (use e.g. 10G, 250M, bits/s)"))?;
    if !x.is_finite() || x <= 0.0 {
        return Err(format!("bad rate {v:?}"));
    }
    Ok(x * mult)
}

fn parse_prob(v: &str) -> Result<f64, String> {
    let x: f64 = v
        .trim()
        .parse()
        .map_err(|_| format!("bad probability {v:?}"))?;
    if !(0.0..=1.0).contains(&x) {
        return Err(format!("probability {v:?} out of [0,1]"));
    }
    Ok(x)
}

/// Seeded splitmix64 stream for the shim's probabilistic draws and the
/// live fault injector's drops, so a seed replays the identical
/// impairment sequence run after run.
#[derive(Debug, Clone)]
pub struct WanDice {
    state: u64,
}

impl WanDice {
    /// A stream that starts from the raw generator state `state`.
    pub fn from_state(state: u64) -> WanDice {
        WanDice { state }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One Bernoulli draw with probability `p`.
    pub fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform duration in `[0, span]`.
    pub fn jitter(&mut self, span: Duration) -> Duration {
        if span.is_zero() {
            return Duration::ZERO;
        }
        let ns = span.as_nanos().min(u64::MAX as u128) as u64;
        Duration::from_nanos(self.next_u64() % (ns + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        assert_eq!(WanProfile::roce_lan().rtt(), Duration::from_micros(26));
        assert_eq!(WanProfile::ib_lan().rtt(), Duration::from_micros(13));
        assert_eq!(WanProfile::ani_wan().rtt(), Duration::from_millis(49));
        let rate_loss = |p: WanProfile| (p.rate_bps, p.loss_p);
        assert_eq!(rate_loss(WanProfile::roce_lan()), (Some(40e9), 0.0));
        assert_eq!(rate_loss(WanProfile::ib_lan()), (Some(25.6e9), 0.0));
        assert_eq!(rate_loss(WanProfile::ani_wan()), (Some(10e9), 1e-6));
        // 10 Gbps * 49 ms = 61.25 MB — the window the WAN demands.
        let bdp = WanProfile::ani_wan().bdp_bytes();
        assert!((bdp as f64 - 61_250_000.0).abs() < 1e4, "bdp={bdp}");
    }

    #[test]
    fn spec_parsing_presets_and_overrides() {
        let p = WanProfile::parse("ani-wan,drop=0.01,seed=7").unwrap();
        assert_eq!(p.name, "ani-wan");
        assert_eq!(p.one_way, Duration::from_micros(24_500));
        assert_eq!(p.loss_p, 0.01);
        assert_eq!(p.seed, 7);

        let c = WanProfile::parse("rtt=49ms,rate=10G,loss=0.001").unwrap();
        assert_eq!(c.name, "custom");
        assert_eq!(c.rtt(), Duration::from_millis(49));
        assert_eq!(c.rate_bps, Some(10e9));
        assert_eq!(c.loss_p, 0.001);

        assert!(WanProfile::parse("lte").is_err());
        assert!(WanProfile::parse("ani-wan,loss=2.0").is_err());
        assert!(WanProfile::parse("rate=10G,rtt=oops").is_err());
        assert!(WanProfile::parse("").is_err());
    }

    #[test]
    fn identity_profile_is_detected() {
        assert!(WanProfile::clean().is_identity());
        assert!(!WanProfile::ani_wan().is_identity());
        let p = WanProfile::parse("rate=none,drop=0").unwrap();
        assert!(p.is_identity());
    }

    #[test]
    fn dice_are_deterministic_per_seed_and_lane() {
        let p = WanProfile::parse("ani-wan,seed=42").unwrap();
        let a: Vec<u64> = {
            let mut d = p.dice(3);
            (0..16).map(|_| d.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut d = p.dice(3);
            (0..16).map(|_| d.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed+lane replays the identical stream");
        let mut other = p.dice(4);
        let c: Vec<u64> = (0..16).map(|_| other.next_u64()).collect();
        assert_ne!(a, c, "lanes decorrelate");
    }

    #[test]
    fn roll_matches_probability_roughly() {
        let p = WanProfile::parse("drop=0.25,seed=9").unwrap();
        let mut d = p.dice(0);
        let hits = (0..10_000).filter(|_| d.roll(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
        let mut never = p.dice(1);
        assert!((0..1_000).all(|_| !never.roll(0.0)));
    }

    #[test]
    fn jitter_stays_in_span() {
        let p = WanProfile::parse("jitter=100us,seed=5").unwrap();
        let mut d = p.dice(0);
        for _ in 0..1_000 {
            assert!(d.jitter(p.jitter) <= Duration::from_micros(100));
        }
        assert_eq!(d.jitter(Duration::ZERO), Duration::ZERO);
    }
}
