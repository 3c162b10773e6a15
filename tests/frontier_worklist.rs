//! Frontier-proportional worklist acceptance: on high-diameter graphs
//! (the road-network / ring-lattice regime where the paper found
//! SlimWork gives "small or no improvement", §IV-A5) the worklist
//! engine must execute strictly fewer total column steps than the full
//! sweep with SlimWork, while staying bit-identical to the sequential
//! oracle in every mode. Counters are exact and host-independent, so
//! the inequalities here are deterministic, not timing-based.

use slimsell::gen::geometric::road_network;
use slimsell::gen::smallworld::watts_strogatz;
use slimsell::prelude::*;

/// Scale-log2 of the acceptance graphs (the criterion requires >= 12).
const SCALE: u32 = 12;

fn full_opts() -> BfsOptions {
    BfsOptions::default().sweep(SweepMode::Full)
}

fn wl_opts() -> BfsOptions {
    BfsOptions::default().sweep(SweepMode::Worklist)
}

fn ad_opts() -> BfsOptions {
    BfsOptions::default().sweep(SweepMode::Adaptive)
}

fn high_diameter_graphs() -> Vec<(&'static str, CsrGraph)> {
    let n = 1usize << SCALE;
    vec![("geometric", road_network(n, 2.8, 42)), ("smallworld", watts_strogatz(n, 4, 0.02, 42))]
}

#[test]
fn worklist_executes_strictly_fewer_column_steps_on_high_diameter_graphs() {
    for (name, g) in high_diameter_graphs() {
        let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let reference = serial_bfs(&g, root);
        let full = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &full_opts());
        let wl = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &wl_opts());
        assert_eq!(full.dist, reference.dist, "{name}: full sweep wrong");
        assert_eq!(wl.dist, reference.dist, "{name}: worklist wrong");
        assert_eq!(
            wl.stats.num_iterations(),
            full.stats.num_iterations(),
            "{name}: iteration counts diverged"
        );
        // A high-diameter BFS actually exercises the wavefront regime.
        assert!(
            wl.stats.num_iterations() > 50,
            "{name}: diameter too small ({} iterations) for the acceptance regime",
            wl.stats.num_iterations()
        );
        assert!(
            wl.stats.total_col_steps() < full.stats.total_col_steps(),
            "{name}: worklist col steps {} !< full-sweep-with-SlimWork col steps {}",
            wl.stats.total_col_steps(),
            full.stats.total_col_steps()
        );
        assert!(wl.stats.total_not_on_worklist() > 0, "{name}: worklist never excluded a chunk");
    }
}

#[test]
fn worklist_outputs_bit_identical_to_sequential_oracle_in_all_modes() {
    let (_, g) = &high_diameter_graphs()[0];
    let root = slimsell::graph::stats::sample_roots(g, 1)[0];
    let m = SlimSellMatrix::<8>::build(g, g.num_vertices());
    let oracle = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| BfsEngine::run::<_, SelMaxSemiring, 8>(&m, root, &full_opts()));
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        for slimchunk in [None, Some(4)] {
            for schedule in [Schedule::Static, Schedule::Dynamic] {
                let opts =
                    BfsOptions { slimchunk, ..Default::default() }.sweep(sweep).schedule(schedule);
                let out = BfsEngine::run::<_, SelMaxSemiring, 8>(&m, root, &opts);
                assert_eq!(out.dist, oracle.dist, "dist: {sweep:?} sc={slimchunk:?}");
                assert_eq!(out.parent, oracle.parent, "parents: {sweep:?} sc={slimchunk:?}");
            }
        }
    }
}

#[test]
fn worklist_counters_are_coherent_per_iteration() {
    let (_, g) = &high_diameter_graphs()[0];
    let root = slimsell::graph::stats::sample_roots(g, 1)[0];
    let m = SlimSellMatrix::<8>::build(g, g.num_vertices());
    let nc = m.structure().num_chunks();
    let wl = BfsEngine::run::<_, BooleanSemiring, 8>(&m, root, &wl_opts());
    for (k, it) in wl.stats.iters.iter().enumerate() {
        assert_eq!(
            it.chunks_processed + it.chunks_skipped,
            it.worklist_len,
            "iter {k}: visit accounting broken"
        );
        assert_eq!(
            it.chunks_not_on_worklist,
            nc - it.worklist_len,
            "iter {k}: exclusion accounting broken"
        );
        assert_eq!(it.cells, it.col_steps * 8, "iter {k}: cells != C * col_steps");
        assert!(it.changed_chunks <= it.worklist_len, "iter {k}: more changes than visits");
    }
    // The wavefront never floods a high-diameter graph: some iteration
    // must leave most chunks off the worklist.
    let min_wl = wl.stats.iters.iter().map(|i| i.worklist_len).min().unwrap();
    assert!(min_wl < nc / 2, "worklist never shrank below half the chunk range");
}

#[test]
fn adaptive_tracks_the_better_pure_mode_on_every_regime() {
    // The acceptance shape of the adaptive controller: on the
    // high-diameter generators it must stay in the worklist regime and
    // match the worklist engine's column steps (within 5%); everywhere
    // it is hard-bounded by the worse pure mode. Counters are exact,
    // so the inequalities are deterministic.
    for (name, g) in high_diameter_graphs() {
        let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let full = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &full_opts());
        let wl = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &wl_opts());
        let ad = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &ad_opts());
        assert_eq!(ad.dist, full.dist, "{name}: adaptive distances wrong");
        assert_eq!(ad.stats.num_iterations(), full.stats.num_iterations());
        let (f, w, a) =
            (full.stats.total_col_steps(), wl.stats.total_col_steps(), ad.stats.total_col_steps());
        assert!(a <= f.max(w), "{name}: adaptive {a} exceeds max(full {f}, worklist {w})");
        let best = f.min(w) as f64;
        assert!(
            (a as f64) <= best * 1.05,
            "{name}: adaptive {a} not within 5% of the better pure mode {best}"
        );
        // High-diameter wavefronts never flood: the controller should
        // never pay a full sweep after the start-up transient.
        assert!(
            ad.stats.worklist_sweep_iterations() * 10 >= ad.stats.num_iterations() * 9,
            "{name}: adaptive ran mostly full sweeps on a wavefront regime ({} of {})",
            ad.stats.worklist_sweep_iterations(),
            ad.stats.num_iterations()
        );
    }
}

#[test]
fn adaptive_mode_trace_is_recorded_per_iteration() {
    let (_, g) = &high_diameter_graphs()[0];
    let root = slimsell::graph::stats::sample_roots(g, 1)[0];
    let m = SlimSellMatrix::<8>::build(g, g.num_vertices());
    let ad = BfsEngine::run::<_, BooleanSemiring, 8>(&m, root, &ad_opts());
    let nc = m.structure().num_chunks();
    for (k, it) in ad.stats.iters.iter().enumerate() {
        match it.sweep_mode {
            ExecutedSweep::Full => {
                assert_eq!(it.worklist_len, nc, "iter {k}: full sweep must visit every chunk");
                assert_eq!(it.chunks_not_on_worklist, 0, "iter {k}");
            }
            ExecutedSweep::Worklist => {
                assert_eq!(it.chunks_not_on_worklist, nc - it.worklist_len, "iter {k}");
            }
        }
    }
    // The switch count derived from the trace matches the aggregate.
    let switches = ad.stats.iters.windows(2).filter(|w| w[0].sweep_mode != w[1].sweep_mode).count();
    assert_eq!(switches, ad.stats.mode_switches());
}

#[test]
fn worklist_direction_optimized_matches_on_high_diameter_graphs() {
    for (name, g) in high_diameter_graphs() {
        let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let reference = serial_bfs(&g, root);
        // Force bottom-up so the worklist path actually runs.
        let mk = |sweep| {
            Descriptor::default()
                .direction(DirectionPolicy::Auto { alpha: f64::INFINITY, beta: f64::INFINITY })
                .sweep(sweep)
        };
        let full = run_descriptor(&m, root, &mk(SweepMode::Full));
        let wl = run_descriptor(&m, root, &mk(SweepMode::Worklist));
        assert_eq!(full.bfs.dist, reference.dist, "{name}: full diropt wrong");
        assert_eq!(wl.bfs.dist, reference.dist, "{name}: worklist diropt wrong");
        assert_eq!(wl.modes, full.modes, "{name}: mode sequences diverged");
        assert!(
            wl.bfs.stats.total_col_steps() < full.bfs.stats.total_col_steps(),
            "{name}: worklist diropt did not reduce column steps"
        );
    }
}
