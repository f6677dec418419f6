//! The answer oracle: every distinct query's reference top-N from an
//! unsharded, uncached, single-shard engine, computed before any timing
//! and compared bit for bit with every delivered answer.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

use moa_ir::{InvertedIndex, PhysicalPlan};
use moa_serve::{BatchQuery, ServeConfig, ServeMode, ShardSpec, ShardedEngine};

/// The reference plan: exact and independent of the serving planner.
pub const ORACLE_MODE: ServeMode = ServeMode::Fixed(PhysicalPlan::SetAtATime);

/// Queries per reference batch.
const BATCH: usize = 64;

/// One reference answer: `(doc, score bits)`, best first.
type Answer = Vec<(u32, u64)>;

/// Reference answers as `(doc, score bits)`, indexed by query id.
pub struct Oracle {
    answers: Vec<Answer>,
}

impl Oracle {
    /// Compute the reference answer of every query in `queries` whose
    /// `wanted` flag is set, on `threads` single-shard engines built over
    /// `index` with `config`'s ranking model and fragmentation.
    pub fn build(
        index: &Arc<InvertedIndex>,
        config: &ServeConfig,
        queries: &[BatchQuery],
        wanted: &[bool],
        threads: usize,
    ) -> Result<Oracle, String> {
        let todo: Vec<usize> = (0..queries.len()).filter(|&i| wanted[i]).collect();
        let chunk = todo.len().div_ceil(threads.max(1)).max(1);
        let mut answers: Vec<Answer> = vec![Vec::new(); queries.len()];
        let parts: Vec<Result<Vec<(usize, Answer)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|ids| {
                    s.spawn(move || {
                        let mut engine = ShardedEngine::build(
                            Arc::clone(index),
                            ShardSpec::Range { shards: 1 },
                            config.frag_spec,
                            config.model,
                            config.policy,
                            config.sparse_block,
                        )
                        .map_err(|e| format!("oracle engine: {e}"))?;
                        let mut out = Vec::with_capacity(ids.len());
                        for batch in ids.chunks(BATCH) {
                            let qs: Vec<BatchQuery> =
                                batch.iter().map(|&i| queries[i].clone()).collect();
                            let responses = engine
                                .execute_batch_sequential(&qs, ORACLE_MODE, false)
                                .map_err(|e| format!("oracle query: {e}"))?;
                            for (&i, r) in batch.iter().zip(responses) {
                                out.push((i, bits(&r.top)));
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        for part in parts {
            for (i, answer) in part? {
                answers[i] = answer;
            }
        }
        Ok(Oracle { answers })
    }

    /// Whether `top` is bit-identical to query `id`'s reference answer.
    pub fn matches(&self, id: u32, top: &[(u32, f64)]) -> bool {
        let want = &self.answers[id as usize];
        want.len() == top.len()
            && want
                .iter()
                .zip(top)
                .all(|(&(d, s), &(gd, gs))| d == gd && s == gs.to_bits())
    }
}

impl Oracle {
    /// Write every answer, in query order: its length, then its
    /// `(doc, score bits)` pairs, all little-endian.
    pub fn write_to(&self, out: impl Write) -> io::Result<()> {
        let mut out = BufWriter::new(out);
        for answer in &self.answers {
            out.write_all(&(answer.len() as u32).to_le_bytes())?;
            for &(doc, score) in answer {
                out.write_all(&doc.to_le_bytes())?;
                out.write_all(&score.to_le_bytes())?;
            }
        }
        out.flush()
    }

    /// Read `queries` answers written by [`Oracle::write_to`].
    pub fn read_from(input: impl Read, queries: usize) -> io::Result<Oracle> {
        let mut input = BufReader::new(input);
        let mut word = [0u8; 4];
        let mut wide = [0u8; 8];
        let mut answers = Vec::with_capacity(queries);
        for _ in 0..queries {
            input.read_exact(&mut word)?;
            let len = u32::from_le_bytes(word) as usize;
            if len > 1 << 20 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "answer too long",
                ));
            }
            let mut answer = Vec::with_capacity(len);
            for _ in 0..len {
                input.read_exact(&mut word)?;
                input.read_exact(&mut wide)?;
                answer.push((u32::from_le_bytes(word), u64::from_le_bytes(wide)));
            }
            answers.push(answer);
        }
        Ok(Oracle { answers })
    }

    /// Run this program again with `args` (which must make it compute the
    /// same inputs' oracle and write it to standard output) and read the
    /// answers back. The reference engine's memory then never touches
    /// this process's heap, so it cannot disturb set-up timing or the
    /// resident-memory figures.
    pub fn from_child(args: &[String], queries: usize) -> Result<Oracle, String> {
        let exe = std::env::current_exe().map_err(|e| format!("oracle: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("oracle: cannot start: {e}"))?;
        let read = Oracle::read_from(child.stdout.take().expect("piped"), queries);
        let status = child.wait().map_err(|e| format!("oracle: {e}"))?;
        if !status.success() {
            return Err(format!("oracle: child exited with {status}"));
        }
        read.map_err(|e| format!("oracle: reading answers: {e}"))
    }
}

fn bits(top: &[(u32, f64)]) -> Answer {
    top.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Workload};
    use moa_corpus::{Collection, CollectionConfig};
    use moa_serve::ServeSession;

    #[test]
    fn oracle_accepts_served_answers_and_catches_a_perturbed_one() {
        let collection = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let inputs = generate(&collection, Workload::ColdTrec, 5, 64);
        let config = ServeConfig::cached(2);
        let wanted = vec![true; inputs.queries.len()];
        let oracle = Oracle::build(&index, &config, &inputs.queries, &wanted, 2).expect("oracle");
        let mut session = ServeSession::new(Arc::clone(&index), config).expect("session");
        let batch: Vec<BatchQuery> = inputs
            .stream
            .iter()
            .map(|&q| inputs.queries[q as usize].clone())
            .collect();
        let report = session.submit_many(&batch).expect("blocking admission");
        let mut checked = 0;
        for (&q, r) in inputs.stream.iter().zip(report.expect_ok()) {
            assert!(oracle.matches(q, &r.top));
            if r.top.len() >= 2 {
                // A changed last bit of one score is caught ...
                let mut bad = r.top.clone();
                bad[1].1 = f64::from_bits(bad[1].1.to_bits() ^ 1);
                assert!(!oracle.matches(q, &bad));
                // ... and so is a swap of two documents' order.
                let mut swapped = r.top.clone();
                swapped.swap(0, 1);
                assert!(!oracle.matches(q, &swapped));
                // ... and a truncated answer.
                assert!(!oracle.matches(q, &r.top[..r.top.len() - 1]));
                checked += 1;
            }
        }
        assert!(checked > 0);

        // The answers survive the trip through a child's standard output.
        let mut bytes = Vec::new();
        oracle.write_to(&mut bytes).expect("in-memory write");
        let back = Oracle::read_from(&bytes[..], inputs.queries.len()).expect("round trip");
        assert_eq!(back.answers, oracle.answers);
        assert!(Oracle::read_from(&bytes[..bytes.len() - 1], inputs.queries.len()).is_err());
    }
}
