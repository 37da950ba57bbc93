//! `tigr ingest` — bulk-append an edge-list file into a mutable
//! graph's WAL over the serving protocol.
//!
//! ```text
//! tigr ingest --file new-edges.txt --addr 127.0.0.1:7171 --graph-name web
//! ```
//!
//! The file is whitespace-separated `u v [w]` lines (`#`/`%` comments
//! and blank lines ignored), the same shape `tigr convert` reads.
//! Edges ship in batches (`--batch`, default 1024) so the WAL fsyncs
//! once per batch instead of once per edge; each batch that references
//! nodes beyond what was grown so far is prefixed with an `add-node`
//! growth op. Duplicate edges are skipped server-side, so re-ingesting
//! the same file is idempotent and the skip count says so.

use std::io::{BufRead, BufReader};

use tigr_server::{Client, MutationOp};

use crate::args::Args;
use crate::commands::CmdResult;

/// Runs the `ingest` command.
pub fn run(args: &Args) -> CmdResult {
    let file: String = args.require("file").map_err(|_| USAGE.to_string())?;
    let graph: String = args.require("graph-name").map_err(|_| USAGE.to_string())?;
    let batch_size: usize = args.flag_or("batch", 1024)?;
    if batch_size == 0 {
        return Err("--batch must be at least 1".into());
    }
    let mut client = connect(args)?;

    let reader =
        BufReader::new(std::fs::File::open(&file).map_err(|e| format!("cannot open {file}: {e}"))?);
    let mut pending: Vec<MutationOp> = Vec::with_capacity(batch_size + 1);
    let mut grown: u64 = 0;
    let mut edges: u64 = 0;
    let mut batches: u64 = 0;
    let (mut applied, mut skipped) = (0u64, 0u64);
    let (mut wal_len, mut epoch) = (0u64, 0u64);
    let mut flush = |pending: &mut Vec<MutationOp>| -> Result<(), String> {
        if pending.is_empty() {
            return Ok(());
        }
        let r = client
            .mutate(&graph, std::mem::take(pending))
            .map_err(|e| e.to_string())?;
        batches += 1;
        applied += r.applied;
        skipped += r.skipped;
        wal_len = r.wal_len;
        epoch = r.epoch;
        Ok(())
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("cannot read {file}: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let mut num = |what: &str| -> Result<u32, String> {
            fields
                .next()
                .ok_or_else(|| format!("{file}:{}: missing {what}", lineno + 1))?
                .parse()
                .map_err(|_| format!("{file}:{}: invalid {what}", lineno + 1))
        };
        let u = num("source")?;
        let v = num("destination")?;
        let w = match fields.next() {
            None => 1,
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{file}:{}: invalid weight", lineno + 1))?,
        };
        let needed = u64::from(u.max(v)) + 1;
        if needed > grown {
            pending.push(MutationOp::AddNode {
                nodes: u.max(v) + 1,
            });
            grown = needed;
        }
        pending.push(MutationOp::AddEdge { u, v, w });
        edges += 1;
        if pending.len() >= batch_size {
            flush(&mut pending)?;
        }
    }
    flush(&mut pending)?;
    if edges == 0 {
        return Err(format!("{file}: no edges to ingest"));
    }
    Ok(format!(
        "ingested {edges} edges into {graph} ({batches} batches)\n\
         applied         {applied} ops / {skipped} skipped (duplicates)\n\
         wal             {wal_len} records\n\
         epoch           {epoch}\n"
    ))
}

fn connect(args: &Args) -> Result<Client, String> {
    match (args.flag("socket"), args.flag("addr")) {
        (Some(path), _) => {
            Client::connect_unix(path).map_err(|e| format!("cannot connect to {path}: {e}"))
        }
        (None, Some(addr)) => {
            Client::connect_tcp(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
        }
        (None, None) => Err(format!("missing --addr or --socket\n{USAGE}")),
    }
}

const USAGE: &str = "usage: tigr ingest --file <edge-list> \
(--addr HOST:PORT | --socket PATH) --graph-name NAME [--batch N]";

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tigr_core::{GraphStore, MutableGraph, PrepareSpec};
    use tigr_server::{Server, ServerConfig, ServerCore};

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>()).unwrap()
    }

    fn ephemeral_mutable_server() -> (Server, String) {
        let store = GraphStore::disabled();
        let prepared = store
            .prepare(&PrepareSpec::generated("rmat:7:6", 3).with_uniform_weights(1, 9, 4))
            .unwrap();
        let mutable = MutableGraph::open(store, prepared).unwrap();
        let core = ServerCore::new(ServerConfig::default());
        core.add_mutable_graph("demo", Arc::new(mutable));
        let server = Server::bind_tcp(core, "127.0.0.1:0").unwrap();
        let addr = match server.addr() {
            tigr_server::ServerAddr::Tcp(a) => a.to_string(),
            other => panic!("{other:?}"),
        };
        (server, addr)
    }

    #[test]
    fn ingests_batched_and_reingest_is_idempotent() {
        let dir = crate::io_util::TestDir::new();
        let file = dir.file("edges.txt");
        std::fs::write(
            &file,
            "# new edges beyond the 128-node base\n\
             0 128 3\n\
             128 129 2\n\
             % a duplicate of the first line\n\
             0 128 3\n\
             1 0\n",
        )
        .unwrap();
        let (server, addr) = ephemeral_mutable_server();
        let out = run(&parse(&format!(
            "--file {file} --addr {addr} --graph-name demo --batch 2"
        )))
        .unwrap();
        assert!(out.contains("ingested 4 edges into demo"), "{out}");
        // 4 edges + 2 growth ops across the batches; the duplicate edge
        // is the one skip (edge 1→0 may exist in the rmat base).
        assert!(out.contains("skipped (duplicates)"), "{out}");
        let again = run(&parse(&format!(
            "--file {file} --addr {addr} --graph-name demo --batch 2"
        )))
        .unwrap();
        // Everything the first pass applied is now a duplicate.
        assert!(again.contains("0 ops"), "{again}");
        server.shutdown();
    }

    #[test]
    fn rejects_bad_input() {
        assert!(run(&parse("")).unwrap_err().contains("usage:"));
        let dir = crate::io_util::TestDir::new();
        let good = dir.file("good.txt");
        std::fs::write(&good, "0 1\n").unwrap();
        let err = run(&parse(&format!("--file {good} --graph-name demo"))).unwrap_err();
        assert!(err.contains("--addr or --socket"), "{err}");
        let (server, addr) = ephemeral_mutable_server();
        let err = run(&parse(&format!(
            "--file {good} --addr {addr} --graph-name demo --batch 0"
        )))
        .unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        let missing = dir.file("missing.txt");
        let err = run(&parse(&format!(
            "--file {missing} --addr {addr} --graph-name demo"
        )))
        .unwrap_err();
        assert!(err.contains("cannot open"), "{err}");
        let bad = dir.file("bad.txt");
        std::fs::write(&bad, "0 x\n").unwrap();
        let err = run(&parse(&format!(
            "--file {bad} --addr {addr} --graph-name demo"
        )))
        .unwrap_err();
        assert!(err.contains("invalid destination"), "{err}");
        let empty = dir.file("empty.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        let err = run(&parse(&format!(
            "--file {empty} --addr {addr} --graph-name demo"
        )))
        .unwrap_err();
        assert!(err.contains("no edges"), "{err}");
        server.shutdown();
    }
}
