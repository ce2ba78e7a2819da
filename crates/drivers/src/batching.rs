//! Walker-batching strategy for the QMC drivers.
//!
//! [`Batching`] selects between the classic one-walker-at-a-time drive
//! (one engine sweeps each walker to completion before touching the next)
//! and crowd-based lock-step execution, where a crowd of walkers advances
//! through the PbyP sweep together so leaf kernels see multi-walker
//! batches (QMCPACK's performance-portable driver design). The crowd
//! itself lives in the `qmc-crowd` crate; this enum is the dial the
//! workloads and binaries share to choose which [`crate::Crew`] to build.

/// How walkers are mapped onto engines within a thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Batching {
    /// One walker at a time per thread (the classic miniQMC drive).
    #[default]
    PerWalker,
    /// Lock-step crowds of the given size (walkers per crowd). A crowd
    /// size of 1 exercises the crowd machinery with scalar-equivalent
    /// batches; results are bit-identical for every crowd size.
    Crowd(usize),
}

impl Batching {
    /// Walkers advanced in lock-step (1 for the per-walker drive).
    pub fn crowd_size(self) -> usize {
        match self {
            Batching::PerWalker => 1,
            Batching::Crowd(w) => w.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crowd_size_floors_at_one() {
        assert_eq!(Batching::PerWalker.crowd_size(), 1);
        assert_eq!(Batching::Crowd(0).crowd_size(), 1);
        assert_eq!(Batching::Crowd(32).crowd_size(), 32);
    }
}
