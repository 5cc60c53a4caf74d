//! The Bayesian-optimization loop: suggest → evaluate → observe.

use simcore::rand::RngCore;
use simcore::trace::{ArgValue, NameId, Tracer, TrackId};
use simcore::SimTime;

use crate::acquisition::Acquisition;
use crate::gp::GaussianProcess;
use crate::kernel::Kernel;
use crate::space::SampleSpace;

/// Configuration of a [`BoOptimizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoConfig {
    /// Surrogate kernel (paper: Matérn 5/2, ℓ = 1).
    pub kernel: Kernel,
    /// Observation-noise variance of the surrogate.
    pub noise_var: f64,
    /// Acquisition function (paper: EI).
    pub acquisition: Acquisition,
    /// Random initial designs before the surrogate takes over (paper: 5).
    pub n_initial: usize,
    /// Global random candidates scored per suggestion.
    pub n_candidates: usize,
    /// Local perturbations of the incumbent scored per suggestion.
    pub n_local: usize,
    /// Width of the local perturbations.
    pub local_scale: f64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            kernel: Kernel::paper_default(),
            noise_var: 2e-3,
            acquisition: Acquisition::default(),
            n_initial: 5,
            n_candidates: 1024,
            n_local: 256,
            local_scale: 0.15,
        }
    }
}

impl BoConfig {
    /// The configuration a warm-started session refines a cached converged
    /// configuration with: the design already contains a near-optimal
    /// seed, so the acquisition pass needs only a local refinement cloud —
    /// 4× fewer candidates than the cold default. Cold (pinned) paths
    /// never use this.
    pub fn warm_default() -> Self {
        BoConfig {
            n_candidates: 256,
            n_local: 64,
            ..BoConfig::default()
        }
    }
}

/// Sequential Bayesian optimizer minimizing a black-box cost over a
/// constrained [`SampleSpace`]. See the crate docs for an example.
///
/// The GP surrogate is *persistent*: [`Self::observe`] streams each new
/// observation into it, and [`Self::suggest`] extends the existing
/// Cholesky factor by one row in `O(K²)` instead of rebuilding and
/// refitting the whole model in `O(K³)` per call.
#[derive(Debug, Clone)]
pub struct BoOptimizer<S> {
    space: S,
    config: BoConfig,
    observations: Vec<(Vec<f64>, f64)>,
    surrogate: GaussianProcess,
    /// Row-major `(n_candidates + n_local) × dim` candidate cloud, reused
    /// by every [`Self::suggest`].
    candidates: Vec<f64>,
    /// Posterior `(mean, variance)` per candidate, reused likewise.
    posterior: Vec<(f64, f64)>,
    tracer: Tracer,
    /// Set while an enabled tracer is installed.
    trace: Option<BoTraceIds>,
    trace_now: SimTime,
}

/// The optimizer's `bo suggest` track and its interned event names.
#[derive(Debug, Clone, Copy)]
struct BoTraceIds {
    track: TrackId,
    fit: NameId,
    score: NameId,
    random_design: NameId,
    fit_fallback: NameId,
    chosen: NameId,
}

impl<S: SampleSpace> BoOptimizer<S> {
    /// Creates an optimizer with no observations.
    ///
    /// # Panics
    ///
    /// Panics if the config asks for zero candidates.
    pub fn new(space: S, config: BoConfig) -> Self {
        assert!(
            config.n_candidates + config.n_local > 0,
            "need at least one candidate per suggestion"
        );
        BoOptimizer {
            space,
            config,
            observations: Vec::new(),
            surrogate: GaussianProcess::new(config.kernel, config.noise_var),
            candidates: Vec::new(),
            posterior: Vec::new(),
            tracer: Tracer::disabled(),
            trace: None,
            trace_now: SimTime::ZERO,
        }
    }

    /// Installs a tracer and registers the optimizer's `bo suggest` track.
    ///
    /// The optimizer runs in wall time, outside the simulation clock, so
    /// trace records are stamped with the simulated time last supplied via
    /// [`Self::set_trace_now`] (typically the start of the HBO window that
    /// triggered the suggestion). Tracing never touches the RNG stream:
    /// suggestions are bit-identical with tracing on or off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.trace = tracer.is_enabled().then(|| BoTraceIds {
            track: tracer.register_track("bo", "bo suggest"),
            fit: tracer.intern("fit"),
            score: tracer.intern("score"),
            random_design: tracer.intern("random design"),
            fit_fallback: tracer.intern("fit fallback"),
            chosen: tracer.intern("chosen"),
        });
        self.tracer = tracer;
    }

    /// Sets the simulated timestamp applied to subsequent trace records.
    pub fn set_trace_now(&mut self, now: SimTime) {
        self.trace_now = now;
    }

    /// The sample space.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// The configuration.
    pub fn config(&self) -> &BoConfig {
        &self.config
    }

    /// Number of observations recorded so far.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// All `(point, cost)` observations in insertion order — the dataset
    /// `D` of the paper.
    pub fn history(&self) -> &[(Vec<f64>, f64)] {
        &self.observations
    }

    /// The best (lowest-cost) observation so far.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        best_of(&self.observations)
    }

    /// Proposes the next point to evaluate.
    ///
    /// During the first `n_initial` calls this is a random feasible design;
    /// afterwards the GP surrogate is fitted to the history and the
    /// acquisition function is maximized over a cloud of global samples
    /// plus local perturbations of the incumbent. Falls back to random
    /// sampling if the surrogate cannot be fitted.
    pub fn suggest(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        if self.observations.len() < self.config.n_initial {
            let z = self.space.sample(rng);
            self.trace_instant(|t| t.random_design, &z, f64::NAN);
            return z;
        }
        // Refit the persistent surrogate: a no-op if nothing was observed
        // since the last suggest, an O(K²) factor extension per new
        // observation otherwise.
        let fit_ok = self.surrogate.fit().is_ok();
        self.trace_span(
            |t| t.fit,
            &[
                ("observations", ArgValue::from(self.observations.len())),
                ("ok", ArgValue::from(u64::from(fit_ok))),
            ],
        );
        if !fit_ok {
            let z = self.space.sample(rng);
            self.trace_instant(|t| t.fit_fallback, &z, f64::NAN);
            return z;
        }
        let f_best = self.surrogate.best_observed().expect("non-empty history");
        // Borrows only `observations`, so the candidate buffer below can
        // be filled while the incumbent is held.
        let (incumbent, _) = best_of(&self.observations).expect("non-empty history");

        // Generate every candidate into the flat buffer first (global
        // samples, then local perturbations of the incumbent, consuming
        // the RNG stream in that order), then score the whole batch.
        let dim = self.space.dim();
        let total = self.config.n_candidates + self.config.n_local;
        self.candidates.resize(total * dim, 0.0);
        let (global, local) = self.candidates.split_at_mut(self.config.n_candidates * dim);
        for z in global.chunks_exact_mut(dim) {
            self.space.sample_into(rng, z);
        }
        for z in local.chunks_exact_mut(dim) {
            self.space
                .perturb_into(incumbent, self.config.local_scale, rng, z);
        }
        self.surrogate
            .predict_batch(&self.candidates, dim, &mut self.posterior);
        let acquisition = self.config.acquisition;
        let (best_idx, best_score) = argmax_strict(
            self.posterior
                .iter()
                .map(|&(mu, var)| acquisition.score(mu, var, f_best)),
        );
        self.trace_span(
            |t| t.score,
            &[
                ("candidates", ArgValue::from(total)),
                ("best_acq", ArgValue::from(best_score)),
            ],
        );
        let chosen = self.candidates[best_idx * dim..(best_idx + 1) * dim].to_vec();
        self.trace_instant(|t| t.chosen, &chosen, best_score);
        chosen
    }

    /// Emits a zero-duration span on the `bo suggest` track (no-op when the
    /// tracer is disabled).
    fn trace_span(&self, name: fn(&BoTraceIds) -> NameId, args: &[(&'static str, ArgValue)]) {
        if let Some(t) = &self.trace {
            self.tracer.complete(
                self.trace_now,
                simcore::SimDuration::from_nanos(0),
                t.track,
                "bo",
                name(t),
                args,
            );
        }
    }

    /// Emits an instant on the `bo suggest` track carrying the proposed
    /// point (no-op when the tracer is disabled).
    fn trace_instant(&self, name: fn(&BoTraceIds) -> NameId, z: &[f64], acq: f64) {
        if let Some(t) = &self.trace {
            let point = z
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(",");
            self.tracer.instant(
                self.trace_now,
                t.track,
                "bo",
                name(t),
                &[
                    ("point", ArgValue::from(point)),
                    ("acq", ArgValue::from(acq)),
                ],
            );
        }
    }

    /// Records the measured cost of a point (line 26 of Algorithm 1:
    /// `D ← D ∪ {(c, x, φ)}`).
    ///
    /// # Panics
    ///
    /// Panics if the point is infeasible (beyond a small tolerance), its
    /// dimension is wrong, or the cost is not finite.
    pub fn observe(&mut self, z: Vec<f64>, cost: f64) {
        assert!(cost.is_finite(), "non-finite cost: {cost}");
        assert!(
            self.space.contains(&z, 1e-6),
            "infeasible observation: {z:?}"
        );
        self.surrogate.add_observation(z.clone(), cost);
        self.observations.push((z, cost));
    }

    /// The persistent GP surrogate (fitted lazily by [`Self::suggest`]).
    pub fn surrogate(&self) -> &GaussianProcess {
        &self.surrogate
    }

    /// Clears the history (a fresh activation starts a new dataset `D`),
    /// including the persistent surrogate and its fitted factor.
    pub fn reset(&mut self) {
        self.observations.clear();
        self.surrogate = GaussianProcess::new(self.config.kernel, self.config.noise_var);
    }
}

/// The lowest-cost observation (the first of ties).
fn best_of(observations: &[(Vec<f64>, f64)]) -> Option<(&[f64], f64)> {
    observations
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(z, c)| (z.as_slice(), *c))
}

/// Index and value of the maximum score, keeping the *first* of tied
/// values — the tie-breaking rule the pinned suggestion streams rely on.
/// A NaN never beats the running best (a leading NaN is never replaced).
///
/// # Panics
///
/// Panics if `scores` is empty.
fn argmax_strict(scores: impl IntoIterator<Item = f64>) -> (usize, f64) {
    let mut scores = scores.into_iter();
    let mut best = (0, scores.next().expect("need at least one score"));
    for (i, score) in scores.enumerate() {
        if score > best.1 {
            best = (i + 1, score);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{BoxSpace, SimplexBoxSpace};
    use simcore::rand::SeedableRng;

    fn rng(seed: u64) -> simcore::rand::StdRng {
        simcore::rand::StdRng::seed_from_u64(seed)
    }

    fn run_quadratic(seed: u64, iters: usize) -> f64 {
        let space = BoxSpace::new(vec![(0.0, 1.0), (0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        let mut r = rng(seed);
        for _ in 0..iters {
            let z = bo.suggest(&mut r);
            let cost = (z[0] - 0.7).powi(2) + (z[1] - 0.2).powi(2);
            bo.observe(z, cost);
        }
        bo.best().unwrap().1
    }

    #[test]
    fn minimizes_a_quadratic() {
        // BO over 25 evaluations should land close to the optimum.
        let best = run_quadratic(11, 25);
        assert!(best < 0.02, "best cost {best}");
    }

    #[test]
    fn beats_pure_random_search() {
        // With an equal budget, BO should usually beat random sampling on
        // a smooth function. Compare means over a few seeds.
        let mut bo_total = 0.0;
        let mut rand_total = 0.0;
        for seed in 0..5 {
            bo_total += run_quadratic(seed, 20);
            let space = BoxSpace::new(vec![(0.0, 1.0), (0.0, 1.0)]);
            let mut r = rng(seed + 100);
            let mut best = f64::INFINITY;
            for _ in 0..20 {
                let z = space.sample(&mut r);
                best = best.min((z[0] - 0.7).powi(2) + (z[1] - 0.2).powi(2));
            }
            rand_total += best;
        }
        assert!(
            bo_total < rand_total,
            "BO total {bo_total} should beat random {rand_total}"
        );
    }

    #[test]
    fn initial_phase_is_random_design() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        let mut r = rng(0);
        for i in 0..BoConfig::default().n_initial {
            let z = bo.suggest(&mut r);
            bo.observe(z, i as f64);
        }
        assert_eq!(bo.len(), 5);
        assert_eq!(bo.history().len(), 5);
    }

    #[test]
    fn works_on_the_hbo_simplex_space() {
        // Minimize a cost that prefers c ≈ (0.2, 0.3, 0.5), x ≈ 0.8.
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        let mut r = rng(42);
        let target = [0.2, 0.3, 0.5, 0.8];
        for _ in 0..30 {
            let z = bo.suggest(&mut r);
            let cost: f64 = z.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum();
            bo.observe(z, cost);
        }
        let (best, cost) = bo.best().unwrap();
        assert!(cost < 0.08, "cost {cost}, best {best:?}");
    }

    #[test]
    fn best_cost_is_monotone_in_history_prefix() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        let mut r = rng(9);
        let mut best_so_far = f64::INFINITY;
        for _ in 0..15 {
            let z = bo.suggest(&mut r);
            let cost = (z[0] - 0.5).abs();
            bo.observe(z, cost);
            let reported = bo.best().unwrap().1;
            best_so_far = best_so_far.min(cost);
            assert_eq!(reported, best_so_far);
        }
    }

    #[test]
    fn reset_clears_the_dataset() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        bo.observe(vec![0.5], 1.0);
        assert!(!bo.is_empty());
        bo.reset();
        assert!(bo.is_empty());
        assert!(bo.best().is_none());
    }

    #[test]
    fn reset_clears_the_persistent_surrogate_and_reenters_random_design() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        let mut r = rng(3);
        // Drive past the random-design phase so the surrogate gets fitted.
        for _ in 0..BoConfig::default().n_initial + 2 {
            let z = bo.suggest(&mut r);
            let cost = (z[0] - 0.4).powi(2);
            bo.observe(z, cost);
        }
        // The surrogate is fitted as of the last surrogate-backed suggest
        // (the trailing observe streams in one not-yet-fitted point).
        bo.suggest(&mut r);
        assert!(bo.surrogate().is_fitted());
        assert_eq!(bo.surrogate().len(), bo.len());
        bo.reset();
        assert!(bo.surrogate().is_empty());
        assert!(!bo.surrogate().is_fitted());
        // Back in the random-design phase: the next suggestion is a plain
        // space sample — it consumes exactly the draws sample() would.
        let mut expected_rng = rng(77);
        let mut actual_rng = rng(77);
        let expected = BoxSpace::new(vec![(0.0, 1.0)]).sample(&mut expected_rng);
        assert_eq!(bo.suggest(&mut actual_rng), expected);
    }

    #[test]
    fn warm_default_shrinks_the_candidate_cloud() {
        let warm = BoConfig::warm_default();
        let cold = BoConfig::default();
        assert_eq!(warm.n_candidates * 4, cold.n_candidates);
        assert_eq!(warm.n_local * 4, cold.n_local);
        // Everything else matches the paper configuration.
        assert_eq!(warm.kernel, cold.kernel);
        assert_eq!(warm.acquisition, cold.acquisition);
        assert_eq!(warm.n_initial, cold.n_initial);
    }

    #[test]
    fn tracing_does_not_change_suggestions_and_captures_spans() {
        use simcore::trace::{ChromeTraceSink, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let run = |traced: bool| {
            let space = BoxSpace::new(vec![(0.0, 1.0), (0.0, 1.0)]);
            let mut bo = BoOptimizer::new(space, BoConfig::default());
            let sink = Rc::new(RefCell::new(ChromeTraceSink::new()));
            if traced {
                bo.set_tracer(Tracer::with_sink(Rc::clone(&sink)));
            }
            let mut r = rng(17);
            let mut points = Vec::new();
            for i in 0..8 {
                bo.set_trace_now(SimTime::ZERO + simcore::SimDuration::from_millis_f64(i as f64));
                let z = bo.suggest(&mut r);
                let cost = (z[0] - 0.3).powi(2) + z[1];
                bo.observe(z.clone(), cost);
                points.push(z);
            }
            let snapshot = sink.borrow().snapshot();
            (points, snapshot)
        };
        let (plain, empty) = run(false);
        let (traced, buffer) = run(true);
        assert_eq!(plain, traced, "tracing must not perturb the RNG stream");
        assert!(empty.records.is_empty());
        // 5 random-design instants, then 3 surrogate suggests each emitting
        // fit span + score span + chosen instant.
        assert_eq!(buffer.records.len(), 5 + 3 * 3);
        assert!(buffer
            .records
            .iter()
            .any(|r| r.cat == "bo" && buffer.name(r) == "fit"));
        assert!(buffer
            .records
            .iter()
            .any(|r| r.cat == "bo" && buffer.name(r) == "chosen"));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_observation_panics() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        bo.observe(vec![7.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_cost_panics() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default());
        bo.observe(vec![0.5], f64::NAN);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let space = SimplexBoxSpace::new(3, 0.2, 1.0);
            let mut bo = BoOptimizer::new(space, BoConfig::default());
            let mut r = rng(seed);
            for _ in 0..10 {
                let z = bo.suggest(&mut r);
                let cost = z[0];
                bo.observe(z, cost);
            }
            bo.best().unwrap().0.to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    /// 25 suggestions under a fixed seed and a fixed quadratic cost, each
    /// as the comma-joined hex bit patterns of its coordinates.
    fn suggestion_stream(space: SimplexBoxSpace, config: BoConfig) -> Vec<String> {
        let dim = space.dim();
        let target: Vec<f64> = (0..dim)
            .map(|i| (i + 1) as f64 / (dim + 1) as f64)
            .collect();
        let mut bo = BoOptimizer::new(space, config);
        let mut r = rng(2024);
        (0..25)
            .map(|_| {
                let z = bo.suggest(&mut r);
                let cost: f64 = z.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum();
                bo.observe(z.clone(), cost);
                z.iter()
                    .map(|v| format!("{:016x}", v.to_bits()))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    }

    // Pinned suggestion streams: 5 random designs, then 20 surrogate
    // suggestions, on the on-device space (3 resources + ratio) and the
    // edge space (4 resources + ratio), under the cold and warm configs.
    // Any change to the RNG draw order, the candidate cloud, the
    // posterior arithmetic or the argmax tie rule shows up here.
    const DEVICE_COLD: [&str; 25] = [
        "3fe6b3a6331ec78b,3fbdc0ae069abaaa,3fc651103037847d,3fe9843c4f9a9948",
        "3fc955c37b1d7dcf,3fd909860c1ee1e0,3fda4b9836525f38,3fd6d18df1d1c03d",
        "3fc2e2a6a3ea0e97,3fe5bc7096f1f1d9,3fc62b97004e2a06,3fec7c772775bd46",
        "3fe817a6182decca,3fbc6100eaf28a7e,3fc170e729cf0799,3fe850cadc17ccbe",
        "3fdd408ff7dca48a,3fc6a0ff36180c5b,3fd76ef06d175547,3fde3efbf26265a8",
        "3fc28792b56034ec,3fb913f42dc72e4d,3fe83b9cccef0cfb,3fea8e0dc820ab4a",
        "3f82ea2eaa17a228,3f78aa003d76cf9d,3fef830344dcb3d9,3fd16eb714667e95",
        "3fc75becd39ac5cc,3fc93f654267124b,3fe3d92b7a7f89fa,3ff0000000000000",
        "0000000000000000,3fd33c18ab72cf1a,3fe661f3aa469873,3feff8f4d456eb83",
        "3fc57a96c6167f17,3faeb04790281159,3fe8b655d577df25,3ff0000000000000",
        "3fc307304132a17b,3fd338727e159d95,3fe1a1fab0a888d6,3feb559329bfdb50",
        "3fbb9d1e92da4798,3fd56338460ba905,3fe1dac00a9ee28a,3fe7d5c642914baa",
        "3fb3f3bb804d016b,3fd78f17912555cb,3fe1b9fcc763b4ed,3fe937fda5a55d6c",
        "3fc71a1f14a7fc7b,3fd22beae391ecc8,3fe12382c90d0a7d,3fe8df34f99f017a",
        "3fc233d763ee0b72,3fd4a64523df1776,3fe11fe79514f169,3fea8a7a6509b321",
        "3f2b2680b613ff64,3fdbb50a6ffbc26e,3fe223c85ff6bd88,3fe927e5140f840e",
        "3fc2f8495b399566,3fd5906f23546b90,3fe079b6178764de,3fe9dad182df9f26",
        "3fc1a304f1f62aeb,3fd2d46bbf048df7,3fe22d08e4002e49,3fe8f058bfd5f162",
        "3f950ae40ed83262,3feee61d1cb8b843,3f8c62f0b4218a81,3fd3328080d0eafa",
        "3fb969e4f0bcc54e,3fdb664022285613,3fde3f46a1a87899,3ff0000000000000",
        "3fc4b304e9880fce,3fd5d4c5d5582e78,3fdfd1b7b5e3c9a0,3fe8264af832e70a",
        "3fc4cce4deac2523,3fd0a6337e6cdc09,3fe279ad091e88b4,3fe70c3e1624974a",
        "3fc2aadf3c2c2ed5,3fd715f2f1176cc4,3fdf949d70d27bd0,3fe9fc299a8c8c80",
        "3fbcff64d7c1dd01,3fd63b130e3cdb8a,3fe14289dde9569b,3fe9ff40c00fe414",
        "3fc3f68dbf99f068,3fd6bfd3c040a4ec,3fdf44e55ff262e2,3fe88a14368e315a",
    ];
    const DEVICE_WARM: [&str; 25] = [
        "3fe6b3a6331ec78b,3fbdc0ae069abaaa,3fc651103037847d,3fe9843c4f9a9948",
        "3fc955c37b1d7dcf,3fd909860c1ee1e0,3fda4b9836525f38,3fd6d18df1d1c03d",
        "3fc2e2a6a3ea0e97,3fe5bc7096f1f1d9,3fc62b97004e2a06,3fec7c772775bd46",
        "3fe817a6182decca,3fbc6100eaf28a7e,3fc170e729cf0799,3fe850cadc17ccbe",
        "3fdd408ff7dca48a,3fc6a0ff36180c5b,3fd76ef06d175547,3fde3efbf26265a8",
        "3fbe8cc7a84fb2c6,3fc16029f7a39f3d,3fe7d65c8d0d21d9,3fe6b970b8bdbc5c",
        "0000000000000000,0000000000000000,3ff0000000000000,3ff0000000000000",
        "3fc7784d22edb519,3fa118ca0f8daa8a,3fe91060164bb811,3fd90153e14b250a",
        "3fc6c5b010099029,3fd12a015b3ecedb,3fe1b9934e5e3488,3fe964cdfe83b376",
        "3f915d0a050c160f,3fd995cb9fe9ac8b,3fe2aa31dfe2c90b,3feb5492a0002e28",
        "3fc839f0c1a50b3b,3fd1276713c6f6f5,3fe15dd045b341b7,3fed60ecd93dbe38",
        "3fbc226d81ea3e64,3fd528848b7246ef,3fe1e7700a0994bc,3fe82ccd8a360092",
        "3fb6fc08259040d7,3fd468c0155edb25,3fe2ec1ef09e8a54,3feb0c03733840d4",
        "3fc302713667515f,3fd45580f666cacd,3fe114a33732c641,3fea450a94e8bbcf",
        "3fc2f025edaa730e,3fd2bc24bc380f1c,3fe1e5e426795baf,3fe8897864db08ce",
        "3fb66a16ff06239b,3fd63f134cbb1f0d,3fe2133379c1ac07,3fe715754c857620",
        "3fba1d3fed42656f,3fd356a675534fa9,3fe31104c7ae0b7d,3fea619d5c99ad94",
        "3fc4f56b05daa545,3fd62f7f3b01b679,3fdf55cb4210f6e4,3fea55e44e86579b",
        "3f9836ba62c8dcce,3feda43810a0e645,3fa9a121c48d2d44,3fd09ea7bfded3b5",
        "3fbbfe7247260f86,3fd86fa3c2f14e3b,3fe0485fd5a296f2,3fec2834024f089a",
        "3fbe40951af944f4,3fdb8182fe09aaa9,3fdcee57bb38041b,3ff0000000000000",
        "3fc35dea96cb9826,3fd2a2629c9f4009,3fe1d7540bfd79f2,3fe7790fd80501da",
        "3fc40ddc123fec55,3fd65cbb176f68ca,3fdf9c56df70a109,3fe9b16f0cc60b1e",
        "3f786c6165d2f355,3fd5e59bddcd99f7,3fe4dc594e4d8d1e,3fe5796e2172b5ac",
        "3fc670488404ca71,3fd2b533db8a60d2,3fe10953f1399cfa,3fe8a7cbadaa8ff6",
    ];
    const EDGE_COLD: [&str; 25] = [
        "3fe464298f82fca6,3fbab97be64469e3,3fc40b9c2cd2f805,3fba0dff43fdc0e2,3fe99e41cc3b618e",
        "3fc4a9b92d529924,3fc5b38692420e56,3fddbd17ad9823f6,3fca2890e53b109d,3fcd5d8e7e205d94",
        "3fd4e3a8f1fb304e,3fad4b399b902b82,3fe13167adc19e64,3fb44081fc3e35de,3fea51ab6c5b2c88",
        "3fda1815df2b8f88,3fd1535345fdf301,3fbace26d95bc0cc,3fcbc21a48ff1a87,3fde3efbf26265a8",
        "3fddb89cba19ee9d,3fd7efdecef0d9c7,3fc2ea7801dd5bd6,3f8c490ec0d13659,3febe6ef4cc0b7f6",
        "3fa5a601c7818383,3fb882be928f5e79,3fea86a87227f620,3fa0e9f9f0e05da3,3feedf149ca0f67c",
        "3fcf98c404ce63e6,0000000000000000,3fdd2e48b49b99c4,3fd3055548fd344a,3fea2222d0fa0239",
        "3fbdbce4019344d6,3f79bce2a02ab665,3fd441569a38ad2b,3fe1f43e6d70eb62,3fef77d35b95d702",
        "0000000000000000,0000000000000000,3fd3279d81d83bb4,3fe66c313f13e226,3fe961cbf183f0dc",
        "0000000000000000,3f9faa1f20874a7c,0000000000000000,3fef02af06fbc5ac,3ff0000000000000",
        "3fae4552944ca941,0000000000000000,3fdb519abbb35355,3fe072dd78e18bc2,3fec9c5845c7fbf2",
        "0000000000000000,0000000000000000,3fdc57f34d0d0edd,3fe1d40659797893,3feb8796679bb83a",
        "3faffbc6373c9377,0000000000000000,3fd7f8b5453b0b3b,3fe203e8f9eeb12a,3feb9b9d40bdb6c2",
        "0000000000000000,3fc1bdeb1337369f,3fd4298ece68c0de,3fe17bbdd3fdd1ea,3feaa08cf530bd26",
        "0000000000000000,3fd1295c4d559931,3fd1413f2cb95035,3fdd956485f1169a,3fecd83cabc8d080",
        "0000000000000000,3fcf0a723f5b27be,3fcbd1881a2167c1,3fe1490169a0dc20,3fe6c5353b0954cc",
        "3f58495a411806a9,3fe6f612ab3a43ea,3f0dfe2475ba521a,3fd1faa15e26b251,3feedd80f54d1eba",
        "3f871d35213581f2,3fc803479005e98f,3fd51302af7def5c,3fde326fdf756fcc,3fea243cf4c8f349",
        "0000000000000000,3fc3bbdaa0a22cb4,3fd5fda0e3dfaa61,3fe01238e5e79fa3,3fe966e2706e2b60",
        "0000000000000000,3fc21c54ee3fa376,3fd7293c718e2016,3fdfc89917520e2e,3fec03bc6217ba57",
        "0000000000000000,3fc65e45564f7421,3fd30174438843b3,3fe0e7b488a8011e,3febc194bd513fda",
        "3f5d394345b09941,3f9a8ebc69dac032,3fb577dc46940de6,3fec6df1f23bcff4,3fcadeebc7779f9a",
        "0000000000000000,3fc7a4cb96ecea1b,3fd4b76f0ad69009,3fdf762b29b2fae9,3fe9864a84369036",
        "0000000000000000,3fc277d3f9873a2e,3fd3e16d83cf651c,3fe171543fb67ee6,3fec1ebc9329eded",
        "3fb5beb05e4d010c,3fc2021e50c2158a,3fd12d07300503d1,3fe0311ec8035895,3feb27881c9049c4",
    ];
    const EDGE_WARM: [&str; 25] = [
        "3fe464298f82fca6,3fbab97be64469e3,3fc40b9c2cd2f805,3fba0dff43fdc0e2,3fe99e41cc3b618e",
        "3fc4a9b92d529924,3fc5b38692420e56,3fddbd17ad9823f6,3fca2890e53b109d,3fcd5d8e7e205d94",
        "3fd4e3a8f1fb304e,3fad4b399b902b82,3fe13167adc19e64,3fb44081fc3e35de,3fea51ab6c5b2c88",
        "3fda1815df2b8f88,3fd1535345fdf301,3fbace26d95bc0cc,3fcbc21a48ff1a87,3fde3efbf26265a8",
        "3fddb89cba19ee9d,3fd7efdecef0d9c7,3fc2ea7801dd5bd6,3f8c490ec0d13659,3febe6ef4cc0b7f6",
        "3fc00f60626a9923,3fad2aa15873aa17,3fe8a8572de00ce7,3fa8126a3fe122e5,3ff0000000000000",
        "3fd0e9f25147d1d5,0000000000000000,3fe028b32e58f285,3fcd894ea40c9240,3fe83a417253bbdf",
        "3fc231dd56254c92,3f8d6e007b1c8473,3fd6e7c2b17ca3ba,3fdf13de9f97d1db,3fe750f88ff8e55c",
        "3fa91e4f107d5ab5,0000000000000000,3fd079c8554cdfab,3fe63136e451ba7f,3feb61b098494564",
        "0000000000000000,0000000000000000,3fdae3cd2fff177b,3fe28e1968007442,3fe844161458b223",
        "3fb2ff95aa99bb43,0000000000000000,3fd6c9e370638729,3fe23b1b927b0503,3fe4f9df9bb325a2",
        "3fa51cdf69e176d2,3fc33a595d6433dd,3fd42d9e6eee22c6,3fdf9198f5239472,3fe9a1381c9ad1c2",
        "0000000000000000,3fce4aa928a8d2cd,3fd0cb6bb03c04a5,3fe0079fddb7c8f9,3febc4e79025a98c",
        "0000000000000000,3fd1220514989182,3fc636b3f89d21c6,3fe1e150778c6ece,3fe9dd31ee36d6ed",
        "0000000000000000,3fcb8b859f2edbdd,3fd37d0c6c5cbb52,3fdebd30c40bd6be,3fef889642851dd1",
        "0000000000000000,3fb6d641f1e4500e,3fd6f3807229f393,3fe1ab7788ae7c35,3feb841b11c03129",
        "0000000000000000,3fcd19fbd55fcefa,3fd39624132ff5d7,3fdddcde022022ac,3fe865a551eb521f",
        "0000000000000000,3fcba41504add687,3fd522c18f922e21,3fdd0b33ee16e69d,3fea5b4d3d289ac1",
        "3f658e177fac9f55,3fc088c68550d710,3fd5e19557b13db4,3fe0d7759b537ec3,3fe9118207f42c8b",
        "0000000000000000,3fc0f6a92edec71c,3fd8396bed66dec8,3fdf4b3f7b29bda9,3fec97dc086e61a3",
        "3f4beffdfbaf1478,3f9d3a0f79122585,3fb723a78b662706,3fec2abe934bbe2e,3fd73ac46e82133d",
        "3f99ab68489f7e17,3fec43e4d6050f2f,3f966804b430cc92,3fb1dbfe10a373d6,3fe1bc968ebb2d04",
        "0000000000000000,3fc68e4ce784611e,3fd26b396f97afc6,3fe126d00e530fd5,3fea8a9cc3e711bb",
        "3fb8ae4cda30c7cb,3fc8de5ffc46233b,3fcba39ced74ac64,3fdf936e5496663f,3fee1e73beff0500",
        "0000000000000000,3fc99631840a20ca,3fd0286bb4e35c82,3fe1863dc48bc98c,3fedc96cd35bd767",
    ];

    #[test]
    fn suggestion_streams_are_pinned() {
        let device = || SimplexBoxSpace::new(3, 0.2, 1.0);
        let edge = || SimplexBoxSpace::new(4, 0.2, 1.0);
        for (name, space, config, expected) in [
            ("device cold", device(), BoConfig::default(), DEVICE_COLD),
            (
                "device warm",
                device(),
                BoConfig::warm_default(),
                DEVICE_WARM,
            ),
            ("edge cold", edge(), BoConfig::default(), EDGE_COLD),
            ("edge warm", edge(), BoConfig::warm_default(), EDGE_WARM),
        ] {
            let got = suggestion_stream(space, config);
            for (i, (g, e)) in got.iter().zip(expected).enumerate() {
                assert_eq!(g, e, "{name}: suggestion {i} moved");
            }
        }
    }

    #[test]
    fn argmax_strict_keeps_the_first_of_ties_and_skips_nan() {
        assert_eq!(argmax_strict([1.0, 3.0, 3.0, 2.0]), (1, 3.0));
        assert_eq!(argmax_strict([5.0]), (0, 5.0));
        assert_eq!(argmax_strict([1.0, f64::NAN, 2.0]), (2, 2.0));
        let (idx, v) = argmax_strict([f64::NAN, 1.0]);
        assert_eq!(idx, 0);
        assert!(v.is_nan());
    }
}
