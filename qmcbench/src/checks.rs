//! Output checks. Every check counts as attempted; a check that does not
//! hold counts as failed and is reported on standard error. Nothing here
//! panics on bad program output: a non-finite energy is a failure, not a
//! crash.

use crate::spec::{WorkloadDef, ENERGY_SIGMAS, POPULATION_FACTOR};
use qmc_instrument::BlockEvent;

/// Attempted and failed check counts of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed over attempted checks.
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Per-generation checks: finite energy and weight, and after warm-up a
    /// population within the per-generation band of [`POPULATION_FACTOR`].
    pub fn generation(&mut self, ev: &BlockEvent, def: &WorkloadDef) {
        let step = ev.step;
        let e = ev.e_block;
        self.check(e.is_finite(), || {
            format!("generation {step}: e_block {e} is not finite")
        });
        let w = ev.weight;
        self.check(w.is_finite() && w > 0.0, || {
            format!("generation {step}: weight {w} is not finite and positive")
        });
        if ev.step <= def.warmup as u64 {
            return;
        }
        let pop = ev.population as f64;
        self.population(pop, POPULATION_FACTOR.0, def, || {
            format!("generation {step}: population")
        });
    }

    /// Per-run checks: samples were taken, their mean population is in the
    /// run band of [`POPULATION_FACTOR`], acceptance is in the workload's
    /// band and the sanitizer counted no violations.
    pub fn run(&mut self, def: &WorkloadDef, samples: u64, acceptance: f64, violations: u64) {
        self.check(samples > 0, || "run produced no samples".into());
        let mean = samples as f64 / (def.steps - def.warmup) as f64;
        self.population(mean, POPULATION_FACTOR.1, def, || {
            "mean run population".into()
        });
        let (lo, hi) = def.acceptance;
        self.check(acceptance >= lo && acceptance <= hi, || {
            format!("acceptance {acceptance} outside [{lo}, {hi}]")
        });
        self.check(violations == 0, || {
            format!("{violations} sanitizer violations")
        });
    }

    fn population(
        &mut self,
        pop: f64,
        factor: f64,
        def: &WorkloadDef,
        what: impl FnOnce() -> String,
    ) {
        let (lo, hi) = (def.walkers as f64 / factor, def.walkers as f64 * factor);
        self.check(pop >= lo && pop <= hi, || {
            format!("{} {pop} outside [{lo}, {hi}]", what())
        });
    }

    /// Energy check over the per-run energies of one invocation: their mean
    /// must lie within [`ENERGY_SIGMAS`] combined standard errors of the
    /// workload's reference. A run's spread is taken as the larger of the
    /// measured and the reference spread, so a few lucky runs cannot shrink
    /// the error bar.
    pub fn energy(&mut self, def: &WorkloadDef, energies: &[f64]) {
        let r = def.energy;
        let n = energies.len();
        let mean = energies.iter().sum::<f64>() / n.max(1) as f64;
        let sd = if n > 1 {
            (energies.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        let se = sd.max(r.sigma_run) / (n as f64).sqrt();
        let se_ref = r.sigma_run / (r.runs as f64).sqrt();
        let combined = se.hypot(se_ref);
        let dist = (mean - r.mean).abs();
        self.check(n > 0 && mean.is_finite() && dist <= ENERGY_SIGMAS * combined, || {
            format!(
                "energy {mean} over {n} runs is {dist} from the reference {} (allowed {} = {ENERGY_SIGMAS} x {combined})",
                r.mean,
                ENERGY_SIGMAS * combined
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn event(e_block: f64, weight: f64, population: u64) -> BlockEvent {
        BlockEvent {
            driver: "dmc",
            step: 5,
            steps_total: 8,
            population,
            samples: 16,
            accepted: 90,
            attempted: 100,
            e_block,
            e_trial: e_block,
            weight,
        }
    }

    #[test]
    fn injected_non_finite_energy_is_a_failure_not_a_panic() {
        let def = &WORKLOADS[0];
        let mut c = Checks::default();
        c.generation(&event(-10.0, 8.0, 8), def);
        assert!(c.correct());
        c.generation(&event(f64::NAN, 8.0, 8), def);
        c.generation(&event(f64::INFINITY, f64::NAN, 8), def);
        assert_eq!(c.attempted, 9);
        assert_eq!(c.failed, 3);
        assert!(!c.correct());
        assert!((c.fail_rate() - 3.0 / 9.0).abs() < 1e-15);
        // A non-finite energy in the per-run energies fails the energy check.
        let mut c = Checks::default();
        c.energy(&WORKLOADS[0], &[WORKLOADS[0].energy.mean, f64::NAN]);
        assert_eq!((c.attempted, c.failed), (1, 1));
    }

    #[test]
    fn population_band_and_reference_energy() {
        let def = &WORKLOADS[0];
        assert_eq!(def.walkers, 8);
        let mut c = Checks::default();
        c.generation(&event(1.0, 1.0, 1), def);
        c.generation(&event(1.0, 1.0, 64), def);
        assert!(c.correct());
        c.generation(&event(1.0, 1.0, 0), def);
        c.generation(&event(1.0, 1.0, 65), def);
        assert_eq!(c.failed, 2);
        // Warm-up generations are held to finiteness only.
        let warm = BlockEvent {
            step: def.warmup as u64,
            ..event(1.0, 1.0, 0)
        };
        c.generation(&warm, def);
        assert_eq!(c.failed, 2);
        // Run mean population: 6 measured generations of 4 to 16 walkers.
        let measured = (def.steps - def.warmup) as u64;
        c.run(def, 4 * measured, 0.95, 0);
        c.run(def, 16 * measured, 0.95, 0);
        assert_eq!(c.failed, 2);
        c.run(def, 3 * measured, 0.95, 0);
        c.run(def, 8 * measured, 1.0, 0);
        assert_eq!(c.failed, 4);
        for def in &WORKLOADS {
            let r = def.energy;
            let mut c = Checks::default();
            c.energy(def, &[r.mean - r.sigma_run, r.mean + r.sigma_run]);
            c.energy(def, &[r.mean + 20.0 * r.sigma_run; 4]);
            assert_eq!((c.attempted, c.failed), (2, 1), "{}", def.name);
        }
    }
}
