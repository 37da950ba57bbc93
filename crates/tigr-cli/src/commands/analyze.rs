//! `tigr analyze <graph>` — compare every transformation's
//! irregularity reduction on one input (the quantitative Figure 1).

use tigr_core::analysis::compare_irregularity_reduction;
use tigr_core::PrepareSpec;
use tigr_graph::stats::degree_stats;

use crate::args::Args;
use crate::commands::{store_from_args, CmdResult};

/// Runs the `analyze` command.
pub fn run(args: &Args) -> CmdResult {
    let path = args
        .positional(0)
        .ok_or("usage: tigr analyze <graph> [--k K] [--cache-dir DIR]")?;
    let k: u32 = args.flag_or("k", 10)?;
    if k < 2 {
        return Err("--k must be at least 2".into());
    }
    let prepared = store_from_args(args)?
        .prepare(&PrepareSpec::from_file(path))
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let g = prepared.graph();

    let before = degree_stats(g);
    let mut out = format!(
        "input: {} nodes, {} edges, max degree {}, degree CV {:.2}\n\n\
         {:<16} {:>10} {:>8} {:>10} {:>10}\n",
        before.num_nodes,
        before.num_edges,
        before.max_degree,
        before.coefficient_of_variation,
        "design",
        "max deg",
        "CV",
        "nodes x",
        "edges x",
    );
    for r in compare_irregularity_reduction(g, k) {
        out.push_str(&format!(
            "{:<16} {:>10} {:>8.2} {:>10.2} {:>10.2}\n",
            r.name, r.max_degree_after, r.cv_after, r.node_growth, r.edge_growth
        ));
    }
    out.push_str(&format!(
        "\n(K = {k}; \"virtual\" rows cost no edge storage — the overlay shares the CSR)\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_reports_all_designs() {
        let dir = crate::io_util::TestDir::new();
        let path = dir.file("g.bin");
        crate::io_util::save_graph(&tigr_graph::generators::star_graph(500), &path).unwrap();

        let args = Args::parse(&[path, "--k".into(), "8".into()]).unwrap();
        let out = run(&args).unwrap();
        for design in [
            "udt",
            "star",
            "recursive-star",
            "circular",
            "clique",
            "virtual",
        ] {
            assert!(out.contains(design), "{design} missing:\n{out}");
        }
    }

    #[test]
    fn rejects_k_one() {
        let args = Args::parse(&["x.txt".into(), "--k".into(), "1".into()]).unwrap();
        assert!(run(&args).unwrap_err().contains("at least 2"));
    }
}
