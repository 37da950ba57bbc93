//! `tigr transform <topology> -i <in> -o <out>` — physical split
//! transformations from the command line, resolved through the
//! [`tigr_core::GraphStore`] artifact layer (so with `--cache-dir` or
//! `TIGR_CACHE_DIR` set, repeating a transform reuses the cached
//! artifact instead of re-splitting).

use tigr_core::{DumbWeight, PrepareSpec, TransformKind};

use crate::args::Args;
use crate::commands::{format_prepare_report, store_from_args, CmdResult};
use crate::io_util::save_graph;

/// Runs the `transform` command.
pub fn run(args: &Args) -> CmdResult {
    let topology = args.positional(0).ok_or(USAGE)?;
    let input: String = args.require("i").map_err(|_| USAGE.to_string())?;
    let output: String = args.require("o").map_err(|_| USAGE.to_string())?;
    let kind =
        TransformKind::parse(topology).ok_or(format!("unknown topology `{topology}`\n{USAGE}"))?;
    let k: Option<u32> = args
        .flag("k")
        .map(|v| v.parse().map_err(|_| "invalid --k".to_string()))
        .transpose()?;
    let dumb = match args.flag("dumb").unwrap_or("zero") {
        "zero" => DumbWeight::Zero,
        "inf" | "infinity" => DumbWeight::Infinity,
        "none" | "unweighted" => DumbWeight::Unweighted,
        other => return Err(format!("unknown dumb-weight policy `{other}`")),
    };

    let spec = PrepareSpec::from_file(&input).with_transform(kind, k, dumb);
    let prepared = store_from_args(args)?
        .prepare(&spec)
        .map_err(|e| format!("cannot load {input}: {e}"))?;
    let g = prepared.graph();
    let t = prepared.transformed().expect("spec requested a transform");

    save_graph(t.graph(), &output)?;
    let mut out = format!(
        "{} transform (K={}, dumb={dumb:?}):\n  {} -> {} nodes (+{} split)\n  {} -> {} edges (+{} new)\n  max degree {} -> {}\n  space {:.2}% of original CSR\nwrote {output}\n",
        t.topology(),
        t.k(),
        g.num_nodes(),
        t.graph().num_nodes(),
        t.num_split_nodes(),
        g.num_edges(),
        t.graph().num_edges(),
        t.num_new_edges(),
        g.max_out_degree(),
        t.graph().max_out_degree(),
        100.0 * t.space_cost_ratio(g),
    );
    if args.switch("stats") {
        out.push_str(&format_prepare_report(&prepared));
    }
    Ok(out)
}

const USAGE: &str = "usage: tigr transform <udt|star|recursive-star|circular|clique> \
-i <in> -o <out> [--k K] [--dumb zero|inf|none] [--stats] [--cache-dir DIR]";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_util::{load_graph, TestDir};

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>()).unwrap()
    }

    fn fixture() -> (TestDir, String, String) {
        let dir = TestDir::new();
        let input = dir.file("in.txt");
        let output = dir.file("out.bin");
        save_graph(&tigr_graph::generators::star_graph(50), &input).unwrap();
        (dir, input, output)
    }

    #[test]
    fn udt_transform_end_to_end() {
        let (_dir, input, output) = fixture();
        let out = run(&parse(&format!("udt -i {input} -o {output} --k 4"))).unwrap();
        assert!(out.contains("udt transform (K=4"));
        let t = load_graph(&output).unwrap();
        assert!(t.max_out_degree() <= 4);
        assert!(t.num_nodes() > 50);
    }

    #[test]
    fn k_defaults_to_heuristic() {
        let (_dir, input, output) = fixture();
        let out = run(&parse(&format!("udt -i {input} -o {output}"))).unwrap();
        assert!(out.contains("K=100"), "{out}");
    }

    #[test]
    fn cached_transform_hits_on_repeat() {
        let (dir, input, output) = fixture();
        let cache = dir.file("cache");
        let cmd = format!("udt -i {input} -o {output} --k 4 --stats --cache-dir {cache}");
        let cold = run(&parse(&cmd)).unwrap();
        assert!(cold.contains("cache           miss"), "{cold}");
        let warm = run(&parse(&cmd)).unwrap();
        assert!(warm.contains("cache           hit"), "{warm}");
        assert!(warm.contains("prep work       0 transforms"), "{warm}");
        assert!(warm.contains("udt transform (K=4"), "{warm}");
    }

    #[test]
    fn bad_topology_rejected() {
        let (_dir, input, output) = fixture();
        let err = run(&parse(&format!("spiral -i {input} -o {output}"))).unwrap_err();
        assert!(err.contains("unknown topology"));
    }

    #[test]
    fn bad_dumb_policy_rejected() {
        let (_dir, input, output) = fixture();
        let err = run(&parse(&format!("udt -i {input} -o {output} --dumb heavy"))).unwrap_err();
        assert!(err.contains("unknown dumb-weight"));
    }
}
