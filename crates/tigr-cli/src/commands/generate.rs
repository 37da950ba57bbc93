//! `tigr generate <model> -o <file>` — synthetic graph generation.

use tigr_graph::generators::{
    barabasi_albert, erdos_renyi, grid_2d, rmat, watts_strogatz, with_uniform_weights,
    BarabasiAlbertConfig, RmatConfig, WattsStrogatzConfig,
};
use tigr_graph::Csr;

use crate::args::Args;
use crate::commands::CmdResult;
use crate::io_util::save_graph;

/// Runs the `generate` command.
pub fn run(args: &Args) -> CmdResult {
    let model = args.positional(0).ok_or(USAGE)?;
    let out_path: String = args.require("o").map_err(|_| USAGE.to_string())?;
    let seed: u64 = args.flag_or("seed", 2018)?;

    let mut g: Csr = match model {
        "rmat" => {
            let scale: u32 = args.flag_or("scale", 12)?;
            let ef: usize = args.flag_or("edge-factor", 8)?;
            let cfg = match args.flag("skew").unwrap_or("social") {
                "heavy" | "follower" => RmatConfig::heavy_tail(scale, ef),
                _ => RmatConfig::graph500(scale, ef),
            };
            rmat(&cfg, seed)
        }
        "ba" | "barabasi-albert" => barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: args.flag_or("nodes", 10_000)?,
                edges_per_node: args.flag_or("edges-per-node", 4)?,
                symmetric: args.switch("symmetric"),
            },
            seed,
        ),
        "er" | "erdos-renyi" => erdos_renyi(
            args.flag_or("nodes", 10_000)?,
            args.flag_or("edges", 80_000)?,
            seed,
        ),
        "ws" | "watts-strogatz" => watts_strogatz(
            &WattsStrogatzConfig {
                num_nodes: args.flag_or("nodes", 10_000)?,
                neighbors_each_side: args.flag_or("neighbors", 3)?,
                rewire_probability: args.flag_or("rewire", 0.05)?,
            },
            seed,
        ),
        "grid" => grid_2d(args.flag_or("rows", 100)?, args.flag_or("cols", 100)?),
        "dataset" => {
            let name: String = args.require("name")?;
            let spec = tigr_graph::datasets::by_name(&name)
                .ok_or_else(|| format!("unknown dataset `{name}`"))?;
            spec.generate(args.flag_or("denominator", 256)?, seed)
        }
        other => return Err(format!("unknown model `{other}`\n{USAGE}")),
    };

    if args.switch("weighted") {
        let hi: u32 = args.flag_or("max-weight", 64)?;
        g = with_uniform_weights(&g, 1, hi.max(1), seed ^ 0x5EED);
    }

    save_graph(&g, &out_path)?;
    Ok(format!(
        "wrote {} nodes, {} edges to {out_path}\n",
        g.num_nodes(),
        g.num_edges()
    ))
}

const USAGE: &str = "usage: tigr generate <rmat|ba|er|ws|grid|dataset> -o <file> \
[--seed N] [--weighted [--max-weight W]] [model options]";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_util::TestDir;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn generates_rmat_to_binary() {
        let dir = TestDir::new();
        let path = dir.file("r.bin");
        let out = run(&parse(&format!("rmat --scale 8 --edge-factor 4 -o {path}"))).unwrap();
        assert!(out.contains("256 nodes"));
        let g = crate::io_util::load_graph(&path).unwrap();
        assert_eq!(g.num_nodes(), 256);
        assert_eq!(g.num_edges(), 1024);
    }

    #[test]
    fn generates_weighted_dataset_analog() {
        let dir = TestDir::new();
        let path = dir.file("d.txt");
        let out = run(&parse(&format!(
            "dataset --name pokec --denominator 2048 --weighted -o {path}"
        )))
        .unwrap();
        assert!(out.contains("wrote"));
        assert!(crate::io_util::load_graph(&path).unwrap().is_weighted());
    }

    #[test]
    fn unknown_model_is_rejected() {
        let dir = TestDir::new();
        let path = dir.file("x.txt");
        let err = run(&parse(&format!("mystery -o {path}"))).unwrap_err();
        assert!(err.contains("unknown model"));
    }

    #[test]
    fn missing_output_is_usage() {
        assert!(run(&parse("rmat")).unwrap_err().contains("usage"));
    }
}
