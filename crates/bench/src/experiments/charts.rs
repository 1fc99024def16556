//! Turns the figure tables into SVG plots (see [`crate::plot`]), so the
//! harness regenerates viewable figures alongside the CSVs.

use crate::plot::{emit_svg_to, heatmap, line_chart, Scale, Series};
use crate::report::Table;
use std::path::Path;

/// Fig. 1-a/1-b: per-step `T_k` and cumulative `Total_Time` per
/// algorithm, from the `fig01_metrics` table.
pub fn fig01(table: &Table) -> (String, String) {
    let n_algos = (table.header.len() - 1) / 2;
    let mut tk = Vec::new();
    let mut totals = Vec::new();
    for a in 0..n_algos {
        let label = table.header[1 + a].trim_start_matches("tk_").to_string();
        tk.push(Series::new(
            label.clone(),
            table.rows.iter().map(|r| (r[0], r[1 + a])).collect(),
        ));
        totals.push(Series::new(
            label,
            table
                .rows
                .iter()
                .map(|r| (r[0], r[1 + n_algos + a]))
                .collect(),
        ));
    }
    (
        line_chart(
            "Fig 1-a: per-iteration time T_k",
            "time step k",
            "T_k (s)",
            &tk,
            Scale::Linear,
            Scale::Linear,
        ),
        line_chart(
            "Fig 1-b: Total_Time(k)",
            "time step k",
            "Total_Time (s)",
            &totals,
            Scale::Linear,
            Scale::Linear,
        ),
    )
}

/// Fig. 3: the per-processor running-time traces.
pub fn fig03(table: &Table) -> String {
    let series: Vec<Series> = (1..table.header.len())
        .map(|c| {
            Series::new(
                table.header[c].clone(),
                table.rows.iter().map(|r| (r[0], r[c])).collect(),
            )
        })
        .collect();
    line_chart(
        "Fig 3: per-iteration running time (4 of 64 processors)",
        "iteration",
        "seconds",
        &series,
        Scale::Linear,
        Scale::Linear,
    )
}

/// Fig. 5/7: log-log survival plot from a `(x, p_gt_x, …)` table.
pub fn survival(table: &Table, title: &str) -> String {
    let pts: Vec<(f64, f64)> = table
        .rows
        .iter()
        .filter(|r| r[0] > 0.0 && r[1] > 0.0)
        .map(|r| (r[0], r[1]))
        .collect();
    line_chart(
        title,
        "x (seconds)",
        "P[X > x]",
        &[Series::new("1-cdf", pts)],
        Scale::Log,
        Scale::Log,
    )
}

/// Fig. 8: the GS2 surface heatmap from the long-format
/// `(ntheta, negrid, seconds)` table.
pub fn fig08(table: &Table) -> String {
    let mut xs: Vec<f64> = table.rows.iter().map(|r| r[0]).collect();
    xs.dedup();
    let mut ys: Vec<f64> = table.rows.iter().map(|r| r[1]).collect();
    ys.sort_by(|a, b| a.partial_cmp(b).expect("finite negrid"));
    ys.dedup();
    let values: Vec<Vec<f64>> = xs
        .iter()
        .enumerate()
        .map(|(i, _)| {
            (0..ys.len())
                .map(|j| table.rows[i * ys.len() + j][2])
                .collect()
        })
        .collect();
    heatmap(
        "Fig 8: GS2 per-iteration time (nodes fixed)",
        "ntheta",
        "negrid",
        &xs,
        &ys,
        &values,
    )
}

/// Fig. 9: NTT vs initial-simplex relative size for both shapes.
pub fn fig09(table: &Table) -> String {
    let series = vec![
        Series::new(
            "minimal (N+1)",
            table.rows.iter().map(|r| (r[0], r[1])).collect(),
        ),
        Series::new(
            "symmetric (2N)",
            table.rows.iter().map(|r| (r[0], r[2])).collect(),
        ),
    ];
    line_chart(
        "Fig 9: initial simplex shape and size",
        "relative size r",
        "avg NTT",
        &series,
        Scale::Linear,
        Scale::Linear,
    )
}

/// Fig. 10: NTT vs K, one line per idle throughput.
pub fn fig10(table: &Table) -> String {
    let series: Vec<Series> = (1..table.header.len())
        .map(|c| {
            Series::new(
                table.header[c].replace("rho_", "rho "),
                table.rows.iter().map(|r| (r[0], r[c])).collect(),
            )
        })
        .collect();
    line_chart(
        "Fig 10: avg NTT vs number of samples",
        "samples K",
        "avg NTT",
        &series,
        Scale::Linear,
        Scale::Linear,
    )
}

/// Renders the full set of figure SVGs from the already-computed tables
/// into `dir`, reporting each file into `buf` (see
/// [`crate::report::emit_to`]).
#[allow(clippy::too_many_arguments)]
pub fn emit_all_to(
    buf: &mut String,
    dir: &Path,
    fig01_table: &Table,
    fig03_table: &Table,
    fig05_table: &Table,
    fig07_table: &Table,
    fig08_table: &Table,
    fig09_table: &Table,
    fig10_table: &Table,
) {
    let (a, b) = fig01(fig01_table);
    emit_svg_to(buf, dir, "fig01a_tk", &a);
    emit_svg_to(buf, dir, "fig01b_total", &b);
    emit_svg_to(buf, dir, "fig03_traces", &fig03(fig03_table));
    emit_svg_to(
        buf,
        dir,
        "fig05_1cdf",
        &survival(fig05_table, "Fig 5: log-log survival (full data)"),
    );
    emit_svg_to(
        buf,
        dir,
        "fig07_1cdf_truncated",
        &survival(fig07_table, "Fig 7: log-log survival (truncated at 5s)"),
    );
    emit_svg_to(buf, dir, "fig08_surface", &fig08(fig08_table));
    emit_svg_to(buf, dir, "fig09_init_simplex", &fig09(fig09_table));
    emit_svg_to(buf, dir, "fig10_multisample", &fig10(fig10_table));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        fig01 as e01, fig03 as e03, fig04_07, fig08 as e08, fig09 as e09, fig10 as e10,
    };

    #[test]
    fn fig01_charts_build() {
        let t = e01::run(&e01::Fig01Config {
            steps: 20,
            reps: 2,
            ..Default::default()
        });
        let (a, b) = fig01(&t);
        assert!(a.contains("polyline") && b.contains("polyline"));
        assert_eq!(a.matches("<polyline").count(), 3);
    }

    #[test]
    fn fig03_and_survival_charts_build() {
        let cfg = e03::Fig03Config {
            procs: 4,
            iters: 100,
            plotted: 3,
            seed: 1,
        };
        let svg = fig03(&e03::run(&cfg));
        assert_eq!(svg.matches("<polyline").count(), 3);
        let (_, f5, _, f7, _) = fig04_07::run(&fig04_07::TailConfig {
            trace: cfg,
            ..Default::default()
        });
        assert!(survival(&f5, "t").contains("polyline"));
        assert!(survival(&f7, "t").contains("polyline"));
    }

    #[test]
    fn fig08_heatmap_builds() {
        let svg = fig08(&e08::run(&e08::Fig08Config::default()));
        // 15 x 12 cells + background + frame
        assert_eq!(svg.matches("<rect").count(), 2 + 15 * 12);
    }

    #[test]
    fn fig09_and_fig10_charts_build() {
        let t9 = e09::run(&e09::Fig09Config {
            sizes: vec![0.2, 0.4],
            steps: 30,
            reps: 2,
            ..Default::default()
        });
        assert_eq!(fig09(&t9).matches("<polyline").count(), 2);
        let t10 = e10::run(&e10::Fig10Config {
            rhos: vec![0.0, 0.2],
            ks: vec![1, 2],
            reps: 2,
            steps: 30,
            ..Default::default()
        });
        assert_eq!(fig10(&t10).matches("<polyline").count(), 2);
    }
}
