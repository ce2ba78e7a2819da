// fixture-path: crates/qmcsched/src/lib.rs
// fixture-silences: schedule-coverage
//! Miniature of the schedule-exploration crate: the named case the
//! registry points `fan_out` at, still (transitively) reaching its
//! registered witness `run_dmc`.

/// Explores the parallel DMC driver across the schedule set.
pub fn explore_dmc_parallel(cfg: &HarnessConfig) -> DriverParity {
    drive(cfg)
}

/// The hop between case and witness keeps the lookup honestly transitive.
fn drive(cfg: &HarnessConfig) -> DriverParity {
    run_dmc(cfg)
}
