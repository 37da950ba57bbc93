//! `tigr stats <graph>` — degree statistics and irregularity profile.

use tigr_graph::stats::{degree_stats, estimate_diameter, power_law_alpha};

use crate::args::Args;
use crate::commands::CmdResult;
use crate::io_util::load_graph;

/// Runs the `stats` command.
pub fn run(args: &Args) -> CmdResult {
    let path = args
        .positional(0)
        .ok_or("usage: tigr stats <graph> [--diameter-samples N]")?;
    let g = load_graph(path)?;
    let s = degree_stats(&g);
    let samples: usize = args.flag_or("diameter-samples", 8)?;
    let diameter = estimate_diameter(&g, samples, 1);
    let alpha = power_law_alpha(&g, 5)
        .map(|a| format!("{a:.2}"))
        .unwrap_or_else(|| "n/a".into());

    let mut out = String::new();
    out.push_str(&format!("graph          {path}\n"));
    out.push_str(&format!("nodes          {}\n", s.num_nodes));
    out.push_str(&format!("edges          {}\n", s.num_edges));
    out.push_str(&format!("weighted       {}\n", g.is_weighted()));
    out.push_str(&format!("avg degree     {:.2}\n", s.avg_degree));
    out.push_str(&format!("median degree  {}\n", s.median_degree));
    out.push_str(&format!("p99 degree     {}\n", s.p99_degree));
    out.push_str(&format!("max degree     {}\n", s.max_degree));
    out.push_str(&format!(
        "degree CV      {:.2}\n",
        s.coefficient_of_variation
    ));
    out.push_str(&format!("deg < 20       {:.1}%\n", s.frac_below_20 * 100.0));
    out.push_str(&format!(
        "deg >= 1000    {:.2}%\n",
        s.frac_at_least_1000 * 100.0
    ));
    out.push_str(&format!("power-law α    {alpha}\n"));
    out.push_str(&format!("diameter (est) {diameter}\n"));
    out.push_str(&format!(
        "suggested K    physical {} / virtual {}\n",
        tigr_core::k_select::physical_k(&g),
        tigr_core::k_select::VIRTUAL_K
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_generated_file() {
        let dir = crate::io_util::TestDir::new();
        let path = dir.file("star.txt");
        let g = tigr_graph::generators::star_graph(100);
        crate::io_util::save_graph(&g, &path).unwrap();

        let args = Args::parse(&[path]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("nodes          100"));
        assert!(out.contains("max degree     99"));
    }

    #[test]
    fn missing_path_is_usage_error() {
        let args = Args::parse(&[]).unwrap();
        assert!(run(&args).unwrap_err().contains("usage"));
    }
}
