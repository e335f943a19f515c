//! One repetition of a workload: timed set-up, timed run, correctness
//! gates, and (traced) the per-layer profile. A measurement runs each
//! repetition in a fresh subprocess so peak RSS is the workload's own;
//! smoke mode and the tests run it in-process.

use crate::trace;
use crate::workloads::{Scale, Workload};
use parn_core::{LossCause, Metrics};
use parn_sim::json::{obj, Json};
use parn_sim::Time;
use std::time::Instant;

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// What one repetition measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_rss_mb: f64,
    pub delivery_rate: f64,
    /// FNV-1a of `Metrics::to_json`: identical across repetitions of one
    /// seed, traced or not.
    pub digest: String,
    /// Correctness gates that failed (empty when all passed).
    pub failures: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<Metric>,
    /// Which percentile each `.phi_us` metric is (traced repetitions only).
    pub phi_labels: Vec<(String, String)>,
}

/// Run one repetition.
pub fn run(workload: Workload, seed: u64, scale: Scale, traced: bool) -> Rep {
    let cfg = workload.config(seed, scale);
    let end = Time::ZERO + cfg.run_for;
    let started = Instant::now();
    let (net, _) = workload.build(cfg);
    let setup_s = started.elapsed().as_secs_f64();

    // Counters are process-global: zero them so they cover this run only.
    parn_sim::obs::reset();
    let started = Instant::now();
    let (m, trace) = if traced {
        let (m, trace) = trace::run_traced(net, end);
        (m, Some(trace))
    } else {
        (net.run_built(), None)
    };
    let run_s = started.elapsed().as_secs_f64();

    let counters = parn_sim::obs::counters_snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let mut failures = gates(&m, workload.static_topology());
    failures.extend(workload.check(&m, counter("phys.sinr.full_invalidations")));
    let (layers, phi_labels) = match &trace {
        Some(t) => trace::layer_metrics(t, &m, counter, run_s),
        None => (Vec::new(), Vec::new()),
    };
    Rep {
        setup_s,
        run_s,
        peak_rss_mb: parn_bench::report::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0),
        delivery_rate: m.delivery_rate(),
        digest: digest(&m),
        failures,
        layers,
        phi_labels,
    }
}

/// The gates every workload must pass. Collision-freedom is the scheme's
/// guarantee for a static topology only: under motion a collision is a
/// loss the ledger must still account for (one Type-1 collision occurs
/// with n = 500, seed 7 and `ChurnPlan::generate` churn).
fn gates(m: &Metrics, static_topology: bool) -> Vec<String> {
    let mut failures = Vec::new();
    if static_topology && m.collision_losses() != 0 {
        let by_type = [
            LossCause::CollisionType1,
            LossCause::CollisionType2,
            LossCause::CollisionType3,
        ]
        .map(|c| m.losses.get(&c).copied().unwrap_or(0));
        failures.push(format!("collision losses of type 1/2/3: {by_type:?}"));
    }
    if !m.conservation_holds() {
        failures.push(format!(
            "conservation broken: generated {} != delivered {} + dropped {} + in flight {}",
            m.generated,
            m.delivered,
            m.total_drops(),
            m.in_flight_at_end
        ));
    }
    if m.hop_attempts != m.hop_successes + m.total_losses() {
        failures.push(format!(
            "hop ledger broken: attempts {} != successes {} + losses {}",
            m.hop_attempts,
            m.hop_successes,
            m.total_losses()
        ));
    }
    failures
}

/// `metrics_digest`: FNV-1a (64-bit) of `Metrics::to_json`, in hex.
pub fn digest(m: &Metrics) -> String {
    let h = m
        .to_json()
        .to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{h:016x}")
}

/// `{"<name>": {"value": …, "unit": …}, …}`: the shape of the result line's
/// `metrics` and of a repetition's `layers`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = obj([("value", m.value.into()), ("unit", m.unit.as_str().into())]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

impl Rep {
    pub fn to_json(&self) -> Json {
        let phi_labels = self
            .phi_labels
            .iter()
            .map(|(k, l)| (k.clone(), l.as_str().into()))
            .collect();
        obj([
            ("setup_s", self.setup_s.into()),
            ("run_s", self.run_s.into()),
            ("peak_rss_mb", self.peak_rss_mb.into()),
            ("delivery_rate", self.delivery_rate.into()),
            ("digest", self.digest.as_str().into()),
            ("failures", self.failures.clone().into()),
            ("layers", metrics_json(&self.layers)),
            ("phi_labels", Json::Obj(phi_labels)),
        ])
    }

    /// The inverse of [`Rep::to_json`], for the parent reading a child's
    /// line.
    pub fn from_json(j: &Json) -> Option<Rep> {
        let num = |j: &Json| match j {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        };
        let field = |key: &str| j.get(key).and_then(num);
        let string = |j: &Json| match j {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        };
        let entries = |key: &str| match j.get(key) {
            Some(Json::Obj(pairs)) => Some(pairs.clone()),
            _ => None,
        };
        let failures = match j.get("failures")? {
            Json::Arr(items) => items.iter().map(string).collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let layers = entries("layers")?
            .iter()
            .map(|(name, v)| {
                Some(Metric {
                    name: name.clone(),
                    unit: string(v.get("unit")?)?,
                    value: num(v.get("value")?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let phi_labels = entries("phi_labels")?
            .iter()
            .map(|(k, l)| Some((k.clone(), string(l)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(Rep {
            setup_s: field("setup_s")?,
            run_s: field("run_s")?,
            peak_rss_mb: field("peak_rss_mb")?,
            delivery_rate: field("delivery_rate")?,
            digest: string(j.get("digest")?)?,
            failures,
            layers,
            phi_labels,
        })
    }
}
