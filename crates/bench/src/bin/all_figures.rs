//! Regenerates every figure (6–12), the three ablations, and the two
//! scenario figures (scenario library + trace replay) in one run with
//! shared options.
//!
//! All twelve figures are described as [`FigureSpec`]s and handed to
//! one [`compute_figures`] call, which flattens their ~55 scenario
//! points into a single batch for the work-stealing [`Runtime`] — a
//! slow point in one figure never idles workers that could be computing
//! another figure. Per-point seeded RNG keeps the output byte-identical
//! for a given `--seed`, regardless of worker count.
//!
//! `cargo run -p coflow-bench --release --bin all_figures -- --jobs 16`

use coflow_bench::runner::{
    compute_figures, epsilon_figure_spec, free_unweighted_figure_spec, lambda_figure_spec,
    online_ablation_spec, ordering_ablation_spec, scenario_library_spec, single_path_figure_spec,
    slot_length_ablation_spec, trace_replay_spec, FigureSpec,
};
use coflow_bench::{print_figure, write_csv, HarnessConfig};
use coflow_netgraph::topology;
use coflow_runtime::Runtime;

fn main() {
    let cfg = HarnessConfig::from_args(12);
    let swan = topology::swan();
    let gscale = topology::gscale();

    // Presentation order; stems are fixed by each spec.
    let specs: Vec<FigureSpec> = vec![
        lambda_figure_spec(&swan, &cfg, 6),
        lambda_figure_spec(&gscale, &cfg, 7),
        epsilon_figure_spec(&swan, &cfg),
        single_path_figure_spec(&swan, &cfg, 9),
        single_path_figure_spec(&gscale, &cfg, 10),
        free_unweighted_figure_spec(&swan, &cfg, 11),
        free_unweighted_figure_spec(&gscale, &cfg, 12),
        slot_length_ablation_spec(&swan, &cfg),
        ordering_ablation_spec(&swan, &cfg),
        online_ablation_spec(&swan, &cfg),
        scenario_library_spec(&swan, &cfg),
        trace_replay_spec(&cfg),
    ];

    let pool = Runtime::new();
    if cfg.verbose {
        eprintln!(
            "[all_figures] {} figures, {} points, {} workers",
            specs.len(),
            specs.iter().map(|s| s.points.len()).sum::<usize>(),
            pool.workers()
        );
    }
    let figures = compute_figures(specs, &pool);

    for (stem, fig) in figures {
        print_figure(&fig);
        match write_csv(&fig, stem) {
            Ok(p) => println!("csv: {}", p.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
        println!();
    }
}
