//! [`CrowdScheduler`]: builds the crowds of a thread crew.
//!
//! One crowd per worker thread. Runs go through the drivers' one
//! generation/block loop (`qmc_drivers::run_dmc` / `run_vmc`), which
//! hands each crowd a contiguous walker chunk and streams it through in
//! crowd-sized lock-step blocks — the same chunking and walker-order
//! reductions as a crew of single engines, so results are bit-identical
//! for any thread count and crowd size.

use crate::crowd::Crowd;
use qmc_containers::Real;
use qmc_drivers::QmcEngine;

/// Builds one crowd per thread of a crew.
#[derive(Clone, Copy, Debug)]
pub struct CrowdScheduler {
    threads: usize,
    crowd_size: usize,
    fused_refresh: bool,
}

impl CrowdScheduler {
    /// A scheduler for `threads` crowds of `crowd_size` walkers each
    /// (both floored at 1).
    pub fn new(threads: usize, crowd_size: usize) -> Self {
        Self {
            threads: threads.max(1),
            crowd_size: crowd_size.max(1),
            fused_refresh: false,
        }
    }

    /// Routes block-boundary refreshes through the fused batched
    /// wavefunction path (`Crowd::refresh_block` with fusion on), driving
    /// the multi-walker SPO kernel. Off by default: the fused spline
    /// kernel regroups floating point, so enabling it gives up bitwise
    /// parity with the per-walker drivers.
    pub fn with_fused_refresh(mut self, fused: bool) -> Self {
        self.fused_refresh = fused;
        self
    }

    /// Instantiates one crowd per thread from an engine factory.
    pub fn build_crowds<T: Real>(
        &self,
        mut factory: impl FnMut() -> QmcEngine<T>,
    ) -> Vec<Crowd<T>> {
        (0..self.threads)
            .map(|_| {
                let mut crowd = Crowd::new((0..self.crowd_size).map(|_| factory()).collect());
                crowd.set_fused_refresh(self.fused_refresh);
                crowd
            })
            .collect()
    }
}
