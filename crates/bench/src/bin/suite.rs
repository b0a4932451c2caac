//! Run the complete evaluation — Figures 6–13 — in one pass (one
//! profiling run and one measured run per workload×approach, reused for
//! all four metrics) and print every figure plus the paper's quoted
//! relative improvements.
//!
//! `--figure N` (6..=13) regenerates one figure on its own, over just the
//! approaches that figure shows.

use massf_bench::{parse_figure, print_figure, print_improvements, run_suite, HarnessOptions};
use massf_core::prelude::*;

/// One figure of each world: title, column label, metric, and whether
/// it shows all six approaches (the MLL figures) or the headline four.
struct Panel {
    name: &'static str,
    label: &'static str,
    metric: fn(&ExperimentMetrics) -> f64,
    six: bool,
}

/// Figures 6–9 (single-AS) and 10–13 (multi-AS), in order.
const PANELS: [Panel; 4] = [
    Panel {
        name: "Simulation Time",
        label: "T [s, modeled]",
        metric: |m| m.simulation_time_secs,
        six: false,
    },
    Panel {
        name: "Achieved MLL",
        label: "MLL [ms]",
        metric: |m| m.achieved_mll_ms,
        six: true,
    },
    Panel {
        name: "Load Imbalance",
        label: "imbalance",
        metric: |m| m.load_imbalance,
        six: false,
    },
    Panel {
        name: "Parallel Efficiency",
        label: "PE",
        metric: |m| m.parallel_efficiency,
        six: false,
    },
];

fn main() {
    let (opts, rest) = HarnessOptions::from_env_partial();
    let only = parse_figure(&rest).unwrap_or_else(|e| HarnessOptions::usage_exit(&e));
    let worlds = [
        (ScenarioKind::SingleAs, "Single-AS"),
        (ScenarioKind::MultiAs, "Multi-AS"),
    ];
    for (w, (kind, world)) in worlds.into_iter().enumerate() {
        let first = 6 + 4 * w;
        if only.is_some_and(|f| !(first..first + 4).contains(&f)) {
            continue;
        }
        // The full suite runs all six approaches once per world; a single
        // figure runs only the approaches it shows.
        let rows = match only {
            Some(f) if !PANELS[f - first].six => {
                run_suite(kind, &opts, &MappingApproach::paper_four())
            }
            _ => run_suite(kind, &opts, &MappingApproach::paper_six()),
        };
        let four: Vec<_> = rows
            .iter()
            .filter(|r| MappingApproach::paper_four().contains(&r.approach))
            .cloned()
            .collect();
        for (i, panel) in PANELS.iter().enumerate() {
            let figure = first + i;
            if only.is_some_and(|f| f != figure) {
                continue;
            }
            let mut title = format!("Figure {figure}: {} on the {world} Network", panel.name);
            // The full suite names scale and engines once per world.
            if i == 0 || only.is_some() {
                title += &format!(" (scale {:?}, {} engines)", opts.scale, opts.engines());
            }
            let shown = if panel.six { &rows } else { &four };
            print_figure(&title, shown, panel.label, panel.metric);
        }
        print_improvements(&rows);
    }
}
