//! Parent side: every input a workload needs, derived from `--seed` and
//! written under `<scratch>/<workload>/in/`, together with the answers the
//! children check the program against (computed on the generator's CSR by
//! `hus_algos::reference`, never by the engine under test).

use crate::harness::Res;
use crate::report::{read_kv, write_kv};
use husgraph::algos::reference;
use husgraph::gen::{self, Csr, EdgeList};
use husgraph::serve::fnv1a64;
use husgraph::storage::pod;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;

/// Graph and stream sizes; `--quick` shrinks every graph to 2^14 vertices.
pub struct Sizes {
    pub pr: (u32, usize),
    pub mesh_vertices: u32,
    pub delta: (u32, usize),
    pub updates: usize,
    pub serve: (u32, usize),
    pub requests: usize,
}

pub fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            pr: (1 << 14, 200_000),
            mesh_vertices: 1 << 14,
            delta: (1 << 14, 200_000),
            updates: 80_000,
            serve: (1 << 14, 200_000),
            requests: 20_000,
        }
    } else {
        Sizes {
            pr: (1 << 19, 8_000_000),
            mesh_vertices: 1 << 18,
            delta: (1 << 17, 2_000_000),
            updates: 800_000,
            serve: (1 << 16, 1_000_000),
            requests: 200_000,
        }
    }
}

pub const PAGERANK_ITERS: usize = 10;
pub const DELTA_BATCHES: usize = 8;
pub const KHOP_DEPTH: u32 = 2;

/// splitmix64 stream: the one source of randomness for the streams the
/// benchmark itself draws (graphs come from `hus-gen` with the same seed).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        gen::types::splitmix64(self.0)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub fn edge_key(src: u32, dst: u32) -> u64 {
    u64::from(src) << 32 | u64::from(dst)
}

/// Order-independent fingerprint of an edge set.
pub fn fingerprint(keys: impl Iterator<Item = u64>) -> u64 {
    keys.fold(0u64, |acc, k| acc.wrapping_add(gen::types::splitmix64(k)))
}

pub fn hash_u32s(v: &[u32]) -> u64 {
    fnv1a64(pod::as_bytes(v))
}

/// One update of the `delta_mixed` stream, as stored in `updates.bin`
/// (three little-endian u32: op, src, dst; op 1 = insert, 0 = delete).
pub fn read_updates(path: &Path) -> Res<Vec<(bool, u32, u32)>> {
    let bytes = std::fs::read(path)?;
    Ok(bytes
        .chunks_exact(12)
        .map(|c| {
            let w = |i: usize| u32::from_le_bytes(c[i..i + 4].try_into().expect("4 bytes"));
            (w(0) == 1, w(4), w(8))
        })
        .collect())
}

pub fn read_u64s(path: &Path) -> Res<Vec<u64>> {
    let bytes = std::fs::read(path)?;
    Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect())
}

pub fn read_f32s(path: &Path) -> Res<Vec<f32>> {
    let bytes = std::fs::read(path)?;
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))).collect())
}

/// The facts file a child starts from.
pub fn read_facts(dir: &Path) -> Res<BTreeMap<String, String>> {
    read_kv(&dir.join("facts.kv"))
}

pub fn fact<T: std::str::FromStr>(facts: &BTreeMap<String, String>, key: &str) -> Res<T> {
    facts
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("facts.kv: missing or malformed `{key}`").into())
}

/// Generate `workload`'s inputs and expected answers into `dir`.
pub fn generate(workload: &str, seed: u64, quick: bool, dir: &Path) -> Res<()> {
    std::fs::create_dir_all(dir)?;
    let sz = sizes(quick);
    let el = match workload {
        "pr_dv" | "pr_par" => gen::rmat(sz.pr.0, sz.pr.1, seed, Default::default()),
        "bfs_mesh" => gen::watts_strogatz(sz.mesh_vertices, 8, 0.002, seed),
        "delta_mixed" => gen::rmat(sz.delta.0, sz.delta.1, seed, Default::default()),
        "lookup_serve" => gen::rmat(sz.serve.0, sz.serve.1, seed, Default::default()),
        other => return Err(format!("unknown workload `{other}`").into()),
    };
    gen::io::write_binary(&el, dir.join("edges.husg"))?;
    let mut facts: Vec<(String, String)> = vec![
        ("num_vertices".into(), el.num_vertices.to_string()),
        ("num_edges".into(), el.num_edges().to_string()),
    ];
    let mut rng = Rng(seed ^ 0x6875_7362_656e_6368); // "husbench"
    match workload {
        "pr_dv" | "pr_par" => {
            let csr = Csr::from_edge_list(&el);
            let ranks = reference::pagerank(&csr, 0.85, PAGERANK_ITERS);
            std::fs::write(dir.join("ranks.f32"), pod::as_bytes(&ranks))?;
        }
        "bfs_mesh" => {
            let csr = Csr::from_edge_list(&el);
            for k in 0..2 {
                let source = rng.below(u64::from(el.num_vertices)) as u32;
                let levels = reference::bfs_levels(&csr, source);
                let reached = levels.iter().filter(|&&l| l != husgraph::algos::UNREACHED).count();
                facts.push((format!("source{k}"), source.to_string()));
                facts.push((format!("hash{k}"), hash_u32s(&levels).to_string()));
                facts.push((format!("reached{k}"), reached.to_string()));
            }
        }
        "delta_mixed" => delta_stream(&el, sz.updates, &mut rng, dir, &mut facts)?,
        _ => serve_stream(&el, sz.requests, &mut rng, dir)?,
    }
    write_kv(&dir.join("facts.kv"), &facts)?;
    Ok(())
}

/// 7 inserts of fresh uniform pairs to 1 delete of a base edge, applied
/// to a set model whose final state the children must reproduce.
fn delta_stream(
    el: &EdgeList,
    updates: usize,
    rng: &mut Rng,
    dir: &Path,
    facts: &mut Vec<(String, String)>,
) -> Res<()> {
    let n = u64::from(el.num_vertices);
    let mut model: HashSet<u64> = el.edges.iter().map(|e| edge_key(e.src, e.dst)).collect();
    let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("updates.bin"))?);
    for k in 0..updates {
        let (insert, src, dst) = if k % 8 == 7 {
            let e = el.edges[rng.below(el.edges.len() as u64) as usize];
            (false, e.src, e.dst)
        } else {
            (true, rng.below(n) as u32, rng.below(n) as u32)
        };
        if insert {
            model.insert(edge_key(src, dst));
        } else {
            model.remove(&edge_key(src, dst));
        }
        for w in [u32::from(insert), src, dst] {
            out.write_all(&w.to_le_bytes())?;
        }
    }
    out.flush()?;
    facts.push(("final_edges".into(), model.len().to_string()));
    facts.push(("final_fingerprint".into(), fingerprint(model.into_iter()).to_string()));
    Ok(())
}

/// 45 % degree, 45 % neighbors, 10 % khop over uniform vertices, with the
/// CSR's answer to each: the degree, the FNV-1a hash of the sorted
/// neighbor list, the size of the depth-2 neighborhood (root included).
fn serve_stream(el: &EdgeList, requests: usize, rng: &mut Rng, dir: &Path) -> Res<()> {
    let csr = Csr::from_edge_list(el);
    let n = u64::from(el.num_vertices);
    let mut lines = std::io::BufWriter::new(std::fs::File::create(dir.join("requests.txt"))?);
    let mut expected: Vec<u64> = Vec::with_capacity(requests);
    let mut stamp = vec![0u32; n as usize];
    for k in 0..requests {
        let v = rng.below(n) as u32;
        match rng.below(100) {
            0..=44 => {
                writeln!(lines, "{{\"op\":\"degree\",\"v\":{v}}}")?;
                expected.push(u64::from(csr.out_degree(v)));
            }
            45..=89 => {
                writeln!(lines, "{{\"op\":\"neighbors\",\"v\":{v}}}")?;
                let mut nb = csr.out_neighbors(v).to_vec();
                nb.sort_unstable();
                expected.push(hash_u32s(&nb));
            }
            _ => {
                writeln!(lines, "{{\"op\":\"khop\",\"v\":{v},\"depth\":{KHOP_DEPTH}}}")?;
                let mark = k as u32 + 1;
                stamp[v as usize] = mark;
                let (mut frontier, mut count) = (vec![v], 1u64);
                for _ in 0..KHOP_DEPTH {
                    let mut next = Vec::new();
                    for &u in &frontier {
                        for &w in csr.out_neighbors(u) {
                            if stamp[w as usize] != mark {
                                stamp[w as usize] = mark;
                                next.push(w);
                            }
                        }
                    }
                    count += next.len() as u64;
                    frontier = next;
                }
                expected.push(count);
            }
        }
    }
    lines.flush()?;
    std::fs::write(dir.join("expected.u64"), pod::as_bytes(&expected))?;
    Ok(())
}
