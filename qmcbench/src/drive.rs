//! Set-up, the untraced production run and its traced replay.
//!
//! The untraced run calls the production entry points
//! (`run_dmc_parallel_controlled`, or `CrowdScheduler::build_crowds` +
//! `run_dmc_crowd_controlled`) and watches generations through
//! `RunControl::on_block`. The traced replay makes the same generation
//! loop from the same public calls, with the benchmark's spans around
//! each, and must end in the same population digest.

use crate::checks::Checks;
use crate::spec::{WorkloadDef, BACKEND, CODE, SYSTEM_SEED};
use crate::trace::{Lane, Trace, NO_GEN, ROOT};
use qmc_crowd::{run_dmc_crowd_controlled, Crowd, CrowdScheduler};
use qmc_drivers::{
    chunks_mut, det_sum_by, initial_population, population_digest, run_dmc_parallel_controlled,
    Batching, BranchController, DmcParams, DmcState, QmcEngine, RunControl, Walker,
};
use qmc_instrument::{drain_thread_profile, BlockEvent, Profile};
use qmc_workloads::Workload;
use std::sync::Mutex;
use std::time::Instant;

/// The engines of one workload: one per thread, or one crowd per thread.
pub enum Engines {
    /// Per-walker drive.
    PerWalker(Vec<QmcEngine<f32>>),
    /// Lock-step crowds.
    Crowds(Vec<Crowd<f32>>),
}

impl Engines {
    /// Threads the engines serve.
    pub fn threads(&self) -> usize {
        match self {
            Engines::PerWalker(e) => e.len(),
            Engines::Crowds(c) => c.len(),
        }
    }

    /// Bytes of all engines (the memory model count).
    pub fn bytes(&self) -> usize {
        match self {
            Engines::PerWalker(e) => e.iter().map(QmcEngine::bytes).sum(),
            Engines::Crowds(c) => c.iter().map(|c| c.size() * c.engine_bytes()).sum(),
        }
    }
}

/// A built workload.
pub struct Setup {
    /// Geometry, electron start and the shared table.
    pub workload: Workload,
    /// The engines.
    pub engines: Engines,
    /// Wall seconds of `Workload::new`.
    pub geometry_s: f64,
    /// Wall seconds of `table_f32`.
    pub table_s: f64,
    /// Wall seconds of building the engines.
    pub engines_s: f64,
}

impl Setup {
    /// Builds `def` for `threads` threads: `Workload::new`, then
    /// `table_f32`, then `build_engine_f32` per engine.
    pub fn new(def: &WorkloadDef, threads: usize) -> Self {
        qmc_kernels::set_backend(BACKEND);
        let t0 = Instant::now();
        let workload = Workload::new(def.benchmark, def.size, SYSTEM_SEED);
        let t1 = Instant::now();
        drop(workload.table_f32());
        let t2 = Instant::now();
        let engines = match def.crowd {
            None => Engines::PerWalker(
                (0..threads)
                    .map(|_| workload.build_engine_f32(CODE))
                    .collect(),
            ),
            Some(cs) => Engines::Crowds(
                CrowdScheduler::new(threads, cs).build_crowds(|| workload.build_engine_f32(CODE)),
            ),
        };
        let t3 = Instant::now();
        Self {
            workload,
            engines,
            geometry_s: (t1 - t0).as_secs_f64(),
            table_s: (t2 - t1).as_secs_f64(),
            engines_s: (t3 - t2).as_secs_f64(),
        }
    }

    /// Wall seconds from the start of workload construction to the end of
    /// engine construction.
    pub fn seconds(&self) -> f64 {
        self.geometry_s + self.table_s + self.engines_s
    }

    fn walkers(&self, def: &WorkloadDef, seed: u64) -> Vec<Walker<f32>> {
        initial_population(self.workload.initial_positions(), def.walkers, seed)
    }
}

/// The parameters `qmc_workloads::run_dmc_benchmark` derives for a run.
pub fn dmc_params(def: &WorkloadDef, seed: u64) -> DmcParams {
    DmcParams {
        steps: def.steps,
        warmup: def.warmup,
        tau: def.tau,
        target_population: def.walkers,
        recompute_every: 16,
        seed: seed ^ 0xD00D,
        batching: def.crowd.map_or(Batching::PerWalker, Batching::Crowd),
    }
}

/// Result of one DMC run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Post-warmup samples.
    pub samples: u64,
    /// Wall seconds of the driver call.
    pub seconds: f64,
    /// Mixed-estimator energy of the run.
    pub energy: f64,
    /// Accepted over attempted moves.
    pub acceptance: f64,
    /// Accepted moves.
    pub accepted: u64,
    /// Attempted moves.
    pub attempted: u64,
    /// FNV-1a digest of the final population.
    pub walker_hash: u64,
    /// Smallest and largest population after any post-warm-up generation.
    pub population: (usize, usize),
}

impl RunResult {
    /// Post-warmup samples per second of driver wall time.
    pub fn throughput(&self) -> f64 {
        self.samples as f64 / self.seconds
    }
}

/// One untraced DMC run with the production driver on the first `threads`
/// engines (or crowds), checking every generation and the run.
pub fn run_untraced(
    def: &WorkloadDef,
    setup: &mut Setup,
    threads: usize,
    seed: u64,
    checks: &mut Checks,
) -> RunResult {
    let mut walkers = setup.walkers(def, seed);
    let params = dmc_params(def, seed);
    let mut events = Vec::with_capacity(def.steps);
    let mut observe = |ev: &BlockEvent| events.push(*ev);
    let mut control = RunControl {
        checkpoint: None,
        on_block: Some(&mut observe),
    };
    qmc_instrument::take_sanitizer_stats();
    let t0 = Instant::now();
    let (res, _) = match &mut setup.engines {
        Engines::PerWalker(e) => run_dmc_parallel_controlled(
            &mut e[..threads],
            &mut walkers,
            &params,
            None,
            &mut control,
        ),
        Engines::Crowds(c) => {
            run_dmc_crowd_controlled(&mut c[..threads], &mut walkers, &params, None, &mut control)
        }
    };
    let seconds = t0.elapsed().as_secs_f64();
    let violations = qmc_instrument::take_sanitizer_stats().total_violations();
    for ev in &events {
        checks.generation(ev, def);
    }
    checks.run(def, res.samples, res.acceptance, violations);
    let last = events.last();
    RunResult {
        samples: res.samples,
        seconds,
        energy: res.energy.mean(),
        acceptance: res.acceptance,
        accepted: last.map_or(0, |e| e.accepted),
        attempted: last.map_or(0, |e| e.attempted),
        walker_hash: population_digest(&walkers),
        population: post_warmup_range(def, &res.population),
    }
}

fn post_warmup_range(def: &WorkloadDef, population: &[usize]) -> (usize, usize) {
    let measured = &population[def.warmup.min(population.len())..];
    let min = measured.iter().copied().min().unwrap_or(0);
    (min, measured.iter().copied().max().unwrap_or(0))
}

/// Result of one traced replay.
pub struct TracedRun {
    /// The run's figures, as for an untraced run.
    pub run: RunResult,
    /// Kernel profile the crates recorded during the replay, all lanes.
    pub profile: Profile,
    /// Bytes of one walker at the end of the replay.
    pub walker_bytes: usize,
}

/// Replays the untraced run's generation loop through the same public
/// calls, recording spans into `trace`:
///
/// * `loop` (coordinator) over `init_fanout` and one `generation` per
///   step; each generation holds `fanout` and `reduce_branch`;
/// * per worker lane, `init` under `init_fanout`, and `worker` under each
///   `fanout` holding the walker phases `load`, `refresh`, `sweep`,
///   `measure`, `store` (crowds: `load`, `crowd.refresh`, `crowd.sweep`,
///   `measure`, `store` per lock-step block).
pub fn run_traced(
    def: &WorkloadDef,
    setup: &mut Setup,
    seed: u64,
    trace: &Trace,
    checks: &mut Checks,
) -> TracedRun {
    let mut walkers = setup.walkers(def, seed);
    let params = dmc_params(def, seed);
    let threads = setup.engines.threads();
    let coord_lane = threads as u32;
    let profile = Mutex::new(Profile::default());
    let merge = |p: &Profile| {
        profile
            .lock()
            .expect("no worker panics while holding the profile")
            .merge(p);
    };
    qmc_instrument::take_sanitizer_stats();
    drain_thread_profile();
    let t0 = Instant::now();
    let mut coord = trace.lane(coord_lane, NO_GEN);
    let root = coord.open("loop", ROOT);

    // Parallel walker initialization over the same contiguous chunks.
    let init = coord.open("init_fanout", root.id);
    // Crowds initialize every walker through their first slot, as
    // `run_dmc_crowd_controlled` does.
    let mut inits: Vec<&mut QmcEngine<f32>> = match &mut setup.engines {
        Engines::PerWalker(e) => e.iter_mut().collect(),
        Engines::Crowds(c) => c.iter_mut().map(|c| c.slot_mut(0)).collect(),
    };
    rayon::scope(|scope| {
        let chunks = chunks_mut(&mut walkers, threads);
        let (parent, merge) = (init.id, &merge);
        for (t, (engine, chunk)) in inits.iter_mut().zip(chunks).enumerate() {
            scope.spawn(move || {
                qmc_instrument::enable_ftz();
                let mut lane = trace.lane(t as u32, NO_GEN);
                lane.leaf("init", parent, || {
                    for w in chunk.iter_mut() {
                        engine.init_walker(w);
                    }
                });
                merge(&drain_thread_profile());
            });
        }
    });
    drop(inits);
    coord.close(init);
    let e0 = walkers.iter().map(|w| w.e_local).sum::<f64>() / walkers.len() as f64;
    let mut state = DmcState::fresh(e0, &params);

    while state.step < params.steps {
        let step = state.step;
        coord.set_gen(step as u32);
        let gen = coord.open("generation", root.id);
        let refresh = params.recompute_every > 0 && step.is_multiple_of(params.recompute_every);
        let fan = coord.open("fanout", gen.id);
        let (acc, att) = fanout(
            &mut setup.engines,
            &mut walkers,
            (refresh, params.tau),
            &state.branch,
            (trace, fan.id, step as u32),
            &merge,
        );
        coord.close(fan);
        let reduce = coord.open("reduce_branch", gen.id);
        let esum = det_sum_by(walkers.len(), |i| walkers[i].weight * walkers[i].e_local);
        let wsum = det_sum_by(walkers.len(), |i| walkers[i].weight);
        let e_block = state.finish_generation(&mut walkers, params.warmup, esum, wsum, acc, att);
        coord.close(reduce);
        coord.close(gen);
        checks.generation(
            &BlockEvent {
                driver: "dmc",
                step: state.step as u64,
                steps_total: params.steps as u64,
                population: walkers.len() as u64,
                samples: state.samples,
                accepted: state.accepted as u64,
                attempted: state.attempted as u64,
                e_block,
                e_trial: state.branch.e_trial,
                weight: wsum,
            },
            def,
        );
    }
    coord.close(root);
    drop(coord);
    let seconds = t0.elapsed().as_secs_f64();
    let violations = qmc_instrument::take_sanitizer_stats().total_violations();
    let (accepted, attempted) = (state.accepted as u64, state.attempted as u64);
    let res = state.into_result();
    checks.run(def, res.samples, res.acceptance, violations);
    let mut profile = profile.into_inner().expect("workers have finished");
    profile.merge(&drain_thread_profile());
    TracedRun {
        run: RunResult {
            samples: res.samples,
            seconds,
            energy: res.energy.mean(),
            acceptance: res.acceptance,
            accepted,
            attempted,
            walker_hash: population_digest(&walkers),
            population: post_warmup_range(def, &res.population),
        },
        profile,
        walker_bytes: walkers.first().map_or(0, Walker::bytes),
    }
}

/// One generation's `rayon::scope` + `chunks_mut` fan-out with a `worker`
/// span per thread under the coordinator's `fanout` span. Returns the
/// accepted and attempted move counts.
fn fanout(
    engines: &mut Engines,
    walkers: &mut [Walker<f32>],
    (refresh, tau): (bool, f64),
    branch: &BranchController,
    (trace, parent, gen): (&Trace, u32, u32),
    merge: &(dyn Fn(&Profile) + Sync),
) -> (usize, usize) {
    let counts = Mutex::new((0usize, 0usize));
    let threads = engines.threads();
    rayon::scope(|scope| {
        let chunks = chunks_mut(walkers, threads);
        let counts = &counts;
        match engines {
            Engines::PerWalker(engines) => {
                for (t, (engine, chunk)) in engines.iter_mut().zip(chunks).enumerate() {
                    scope.spawn(move || {
                        qmc_instrument::enable_ftz();
                        let mut lane = trace.lane(t as u32, gen);
                        let worker = lane.open("worker", parent);
                        let id = worker.id;
                        let (mut acc, mut att) = (0, 0);
                        for w in chunk.iter_mut() {
                            lane.leaf("load", id, || engine.load_walker(w));
                            if refresh {
                                lane.leaf("refresh", id, || engine.refresh_from_scratch());
                            }
                            let stats = lane.leaf("sweep", id, || engine.sweep(tau, &mut w.rng));
                            acc += stats.accepted;
                            att += stats.attempted;
                            let el =
                                lane.leaf("measure", id, || engine.measure(&mut w.rng).total());
                            reweight(w, el, stats.accepted, branch);
                            lane.leaf("store", id, || engine.store_walker(w));
                        }
                        finish_worker(&mut lane, worker, counts, (acc, att), merge);
                    });
                }
            }
            Engines::Crowds(crowds) => {
                for (t, (crowd, chunk)) in crowds.iter_mut().zip(chunks).enumerate() {
                    scope.spawn(move || {
                        qmc_instrument::enable_ftz();
                        let mut lane = trace.lane(t as u32, gen);
                        let worker = lane.open("worker", parent);
                        let id = worker.id;
                        let (mut acc, mut att) = (0, 0);
                        let cs = crowd.size();
                        for block in chunk.chunks_mut(cs) {
                            lane.leaf("load", id, || {
                                for (s, w) in block.iter_mut().enumerate() {
                                    crowd.slot_mut(s).load_walker(w);
                                }
                            });
                            if refresh {
                                lane.leaf("crowd.refresh", id, || crowd.refresh_block(block.len()));
                            }
                            let stats = lane.leaf("crowd.sweep", id, || crowd.sweep(block, tau));
                            for (s, w) in block.iter_mut().enumerate() {
                                acc += stats[s].accepted;
                                att += stats[s].attempted;
                                let e = crowd.slot_mut(s);
                                let el = lane.leaf("measure", id, || e.measure(&mut w.rng).total());
                                reweight(w, el, stats[s].accepted, branch);
                                lane.leaf("store", id, || e.store_walker(w));
                            }
                        }
                        finish_worker(&mut lane, worker, counts, (acc, att), merge);
                    });
                }
            }
        }
    });
    counts.into_inner().expect("workers have finished")
}

/// The per-walker tail of the production generation: finiteness check,
/// branching weight and age.
fn reweight(w: &mut Walker<f32>, el: f64, accepted: usize, branch: &BranchController) {
    qmc_instrument::check_finite(qmc_instrument::CheckKind::LocalEnergy, el);
    w.weight *= branch.weight_factor(w.e_local, el);
    w.age = if accepted == 0 { w.age + 1 } else { 0 };
    w.e_local = el;
}

fn finish_worker(
    lane: &mut Lane<'_>,
    worker: crate::trace::Open,
    counts: &Mutex<(usize, usize)>,
    (acc, att): (usize, usize),
    merge: &(dyn Fn(&Profile) + Sync),
) {
    let mut c = counts
        .lock()
        .expect("no worker panics while holding the counts");
    c.0 += acc;
    c.1 += att;
    drop(c);
    merge(&drain_thread_profile());
    lane.close(worker);
}
