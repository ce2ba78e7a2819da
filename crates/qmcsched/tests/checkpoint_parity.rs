//! Checkpoint/restart bitwise-parity matrix (the PR's acceptance bar):
//! for VMC and DMC, for both batching modes (crowd batching with the
//! fused block refresh both off and on) and all three kernel backends, a
//! run checkpointed at an interior generation and resumed from the file
//! must finish with per-walker full-state digests (walker buffers,
//! positions, weight, age AND raw RNG words) identical to the straight
//! run's — plus equal scalar outputs. VMC runs each case on one engine
//! (or crowd) and on a crew of `THREADS`.
//!
//! All cases live in ONE `#[test]`: `qmc_kernels::set_backend` is
//! process-global, and cargo runs tests within a binary concurrently.

use qmc_crowd::CrowdScheduler;
use qmc_drivers::{
    initial_population, read_dmc_checkpoint, read_vmc_checkpoint, run_dmc, run_vmc,
    walker_digest_full, Batching, CheckpointSpec, DmcParams, QmcEngine, RunControl, VmcParams,
    VmcResult, VmcState, Walker,
};
use qmc_kernels::Backend;
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};

const THREADS: usize = 3;
const WALKERS: usize = 6;
const STEPS: usize = 6;
const CUT: usize = 3; // interior checkpoint step — not the trivial final one
const SEED: u64 = 1234;

fn digests(walkers: &[Walker<f32>]) -> Vec<u64> {
    walkers.iter().map(walker_digest_full).collect()
}

fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("qmc_ckpt_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name).to_string_lossy().into_owned()
}

fn spec_at_cut(path: &str) -> CheckpointSpec {
    CheckpointSpec {
        path: path.to_string(),
        every: CUT,
    }
}

fn dmc_params(steps: usize, batching: Batching) -> DmcParams {
    DmcParams {
        steps,
        warmup: 1,
        tau: 0.003,
        target_population: WALKERS,
        recompute_every: 2,
        seed: SEED ^ 0xD00D,
        batching,
    }
}

fn vmc_params(blocks: usize) -> VmcParams {
    VmcParams {
        blocks,
        steps_per_block: 3,
        tau: 0.3,
        measure_every: 1,
    }
}

/// Straight DMC run of `STEPS` generations; returns per-walker digests
/// and the scalar triple.
fn dmc_straight(w: &Workload, batching: Batching, fused: bool) -> (Vec<u64>, (f64, f64, u64)) {
    let params = dmc_params(STEPS, batching);
    let mut walkers = initial_population(w.initial_positions(), WALKERS, SEED);
    let res = match batching {
        Batching::PerWalker => {
            let mut engines: Vec<QmcEngine<f32>> = (0..THREADS)
                .map(|_| w.build_engine_f32(CodeVersion::Current))
                .collect();
            let (res, _) = run_dmc(
                &mut engines,
                &mut walkers,
                &params,
                None,
                &mut RunControl::none(),
            );
            res
        }
        Batching::Crowd(c) => {
            let scheduler = CrowdScheduler::new(THREADS, c).with_fused_refresh(fused);
            let mut crowds = scheduler.build_crowds(|| w.build_engine_f32(CodeVersion::Current));
            let (res, _) = run_dmc(
                &mut crowds,
                &mut walkers,
                &params,
                None,
                &mut RunControl::none(),
            );
            res
        }
    };
    (
        digests(&walkers),
        (res.energy.mean(), res.e_trial, res.samples),
    )
}

/// DMC run killed after `CUT` generations (checkpoint written by the
/// periodic cadence), then resumed FROM THE FILE to `STEPS` with fresh
/// engines — the restart path a real job takes.
fn dmc_resumed(
    w: &Workload,
    batching: Batching,
    fused: bool,
    path: &str,
) -> (Vec<u64>, (f64, f64, u64)) {
    {
        let params = dmc_params(CUT, batching);
        let mut walkers = initial_population(w.initial_positions(), WALKERS, SEED);
        let mut ctl = RunControl {
            checkpoint: Some(spec_at_cut(path)),
            on_block: None,
        };
        match batching {
            Batching::PerWalker => {
                let mut engines: Vec<QmcEngine<f32>> = (0..THREADS)
                    .map(|_| w.build_engine_f32(CodeVersion::Current))
                    .collect();
                run_dmc(&mut engines, &mut walkers, &params, None, &mut ctl);
            }
            Batching::Crowd(c) => {
                let scheduler = CrowdScheduler::new(THREADS, c).with_fused_refresh(fused);
                let mut crowds =
                    scheduler.build_crowds(|| w.build_engine_f32(CodeVersion::Current));
                run_dmc(&mut crowds, &mut walkers, &params, None, &mut ctl);
            }
        }
    }
    let (state, mut walkers) = read_dmc_checkpoint::<f32>(path).expect("read DMC checkpoint");
    assert_eq!(state.step, CUT, "checkpoint captured the interior step");
    let params = dmc_params(STEPS, batching);
    let res = match batching {
        Batching::PerWalker => {
            let mut engines: Vec<QmcEngine<f32>> = (0..THREADS)
                .map(|_| w.build_engine_f32(CodeVersion::Current))
                .collect();
            let (res, _) = run_dmc(
                &mut engines,
                &mut walkers,
                &params,
                Some(state),
                &mut RunControl::none(),
            );
            res
        }
        Batching::Crowd(c) => {
            let scheduler = CrowdScheduler::new(THREADS, c).with_fused_refresh(fused);
            let mut crowds = scheduler.build_crowds(|| w.build_engine_f32(CodeVersion::Current));
            let (res, _) = run_dmc(
                &mut crowds,
                &mut walkers,
                &params,
                Some(state),
                &mut RunControl::none(),
            );
            res
        }
    };
    (
        digests(&walkers),
        (res.energy.mean(), res.e_trial, res.samples),
    )
}

/// One VMC run on `threads` engines, or `threads` crowds of `c` walkers.
fn vmc_run(
    w: &Workload,
    (batching, fused, threads): (Batching, bool, usize),
    walkers: &mut [Walker<f32>],
    params: &VmcParams,
    resume: Option<VmcState>,
    ctl: &mut RunControl<'_>,
) -> VmcResult {
    let (res, _) = match batching {
        Batching::PerWalker => {
            let mut engines: Vec<QmcEngine<f32>> = (0..threads)
                .map(|_| w.build_engine_f32(CodeVersion::Current))
                .collect();
            run_vmc(&mut engines, walkers, params, resume, ctl)
        }
        Batching::Crowd(c) => {
            let scheduler = CrowdScheduler::new(threads, c).with_fused_refresh(fused);
            let mut crowds = scheduler.build_crowds(|| w.build_engine_f32(CodeVersion::Current));
            run_vmc(&mut crowds, walkers, params, resume, ctl)
        }
    };
    res
}

/// Straight VMC run of `STEPS` blocks.
fn vmc_straight(w: &Workload, crew: (Batching, bool, usize)) -> (Vec<u64>, (f64, f64, u64)) {
    let params = vmc_params(STEPS);
    let mut walkers = initial_population(w.initial_positions(), WALKERS, SEED);
    let res = vmc_run(
        w,
        crew,
        &mut walkers,
        &params,
        None,
        &mut RunControl::none(),
    );
    (
        digests(&walkers),
        (res.energy.mean(), res.acceptance, res.samples),
    )
}

/// VMC killed after `CUT` blocks, resumed from the file to `STEPS`.
fn vmc_resumed(
    w: &Workload,
    crew: (Batching, bool, usize),
    path: &str,
) -> (Vec<u64>, (f64, f64, u64)) {
    {
        let params = vmc_params(CUT);
        let mut walkers = initial_population(w.initial_positions(), WALKERS, SEED);
        let mut ctl = RunControl {
            checkpoint: Some(spec_at_cut(path)),
            on_block: None,
        };
        vmc_run(w, crew, &mut walkers, &params, None, &mut ctl);
    }
    let (state, mut walkers) = read_vmc_checkpoint::<f32>(path).expect("read VMC checkpoint");
    assert_eq!(state.block, CUT, "checkpoint captured the interior block");
    let params = vmc_params(STEPS);
    let res = vmc_run(
        w,
        crew,
        &mut walkers,
        &params,
        Some(state),
        &mut RunControl::none(),
    );
    (
        digests(&walkers),
        (res.energy.mean(), res.acceptance, res.samples),
    )
}

#[test]
fn checkpoint_resume_is_bitwise_across_drivers_batchings_and_backends() {
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, SEED);
    let saved = Backend::current();
    for backend in [Backend::Reference, Backend::Soa, Backend::Simd] {
        qmc_kernels::set_backend(backend);
        for (batching, fused) in [
            (Batching::PerWalker, false),
            (Batching::Crowd(2), false),
            (Batching::Crowd(2), true),
        ] {
            let tag = format!("{backend:?}-{batching:?}-fused{fused}");

            let path = scratch(&format!("dmc-{tag}.qmc"));
            let (straight_w, straight_s) = dmc_straight(&w, batching, fused);
            let (resumed_w, resumed_s) = dmc_resumed(&w, batching, fused, &path);
            assert_eq!(
                straight_w, resumed_w,
                "DMC [{tag}]: per-walker full digests diverged after resume"
            );
            assert_eq!(
                straight_s, resumed_s,
                "DMC [{tag}]: scalar results diverged after resume"
            );

            for threads in [1, THREADS] {
                let tag = format!("{tag}-threads{threads}");
                let crew = (batching, fused, threads);
                let path = scratch(&format!("vmc-{tag}.qmc"));
                let (straight_w, straight_s) = vmc_straight(&w, crew);
                let (resumed_w, resumed_s) = vmc_resumed(&w, crew, &path);
                assert_eq!(
                    straight_w, resumed_w,
                    "VMC [{tag}]: per-walker full digests diverged after resume"
                );
                assert_eq!(
                    straight_s, resumed_s,
                    "VMC [{tag}]: scalar results diverged after resume"
                );
            }
        }
    }
    qmc_kernels::set_backend(saved);
}

/// Cross-batching restart: a checkpoint written by the per-walker DMC
/// driver resumed under crowd batching (and vice versa) is ALSO bitwise —
/// the checkpoint pins physics state, not execution shape.
#[test]
fn dmc_checkpoint_resumes_bitwise_across_batching_modes() {
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, SEED);
    let (straight_w, straight_s) = dmc_straight(&w, Batching::PerWalker, false);

    // Kill a per-walker job at CUT...
    let path = scratch("cross-batching.qmc");
    {
        let params = dmc_params(CUT, Batching::PerWalker);
        let mut engines: Vec<QmcEngine<f32>> = (0..THREADS)
            .map(|_| w.build_engine_f32(CodeVersion::Current))
            .collect();
        let mut walkers = initial_population(w.initial_positions(), WALKERS, SEED);
        let mut ctl = RunControl {
            checkpoint: Some(spec_at_cut(&path)),
            on_block: None,
        };
        run_dmc(&mut engines, &mut walkers, &params, None, &mut ctl);
    }

    // ...and restart it under crowd batching. Same answer, to the bit.
    let (state, mut walkers) = read_dmc_checkpoint::<f32>(&path).expect("read checkpoint");
    let params = dmc_params(STEPS, Batching::Crowd(2));
    let scheduler = CrowdScheduler::new(THREADS, 2);
    let mut crowds = scheduler.build_crowds(|| w.build_engine_f32(CodeVersion::Current));
    let (res, _) = run_dmc(
        &mut crowds,
        &mut walkers,
        &params,
        Some(state),
        &mut RunControl::none(),
    );

    assert_eq!(straight_w, digests(&walkers));
    assert_eq!(straight_s, (res.energy.mean(), res.e_trial, res.samples));
}
