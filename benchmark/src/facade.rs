//! The cold operation as a user of the library runs it: program text →
//! [`KnowledgeBase`] → solve → answer every embedded query, each answer
//! checked against the oracle.

use crate::gen::{AnswerDigest, Expect, Inputs, Program, Workload};
use crate::oracle::{check, Got, Verdict};
use std::time::{Duration, Instant};
use wfdatalog::{KnowledgeBase, PreparedQuery, SolvedModel, Truth};

pub fn verdict_of(truth: Truth) -> Verdict {
    match truth {
        Truth::True => Verdict::True,
        Truth::False => Verdict::False,
        Truth::Unknown => Verdict::Unknown,
    }
}

/// Compiles the workload's program text. `threads = None` leaves the
/// shipped default (automatic), which is what `wfdl run` and API users get.
pub fn compile(
    workload: Workload,
    program: &Program,
    threads: Option<usize>,
) -> Result<KnowledgeBase, String> {
    let kb = match program {
        Program::Datalog(text) => KnowledgeBase::from_source(text).map_err(|e| e.to_string())?,
        Program::Ontology { text, queries } => {
            let onto = wfdatalog::ontology::parse_ontology(text).map_err(|e| e.to_string())?;
            let mut kb = KnowledgeBase::from_ontology(&onto).map_err(|e| e.to_string())?;
            kb.add_source(queries).map_err(|e| e.to_string())?;
            kb
        }
    };
    let kb = match workload.depth() {
        Some(depth) => kb.with_depth(depth),
        None => kb,
    };
    Ok(match threads {
        Some(n) => kb.with_threads(n),
        None => kb,
    })
}

/// Evaluates one prepared query through the direct API and checks it.
pub fn answer_matches(model: &SolvedModel, query: &PreparedQuery, expect: &Expect) -> bool {
    if query.is_boolean() {
        let verdict = verdict_of(model.ask3_prepared(query));
        check(expect, &Got::Truth(verdict.as_str()))
    } else {
        let mut digest = AnswerDigest::default();
        for tuple in model.answers_prepared(query).tuples() {
            match &tuple[..] {
                [one] => digest.add(&model.universe().display_term(*one).to_string()),
                _ => return false,
            }
        }
        check(expect, &Got::Answers(digest))
    }
}

/// Timings and verdict counts of one cold operation.
pub struct ColdOp {
    pub compile: Duration,
    pub solve: Duration,
    pub answer: Duration,
    /// `(true, false, unknown)` over the segment's atoms.
    pub counts: (usize, usize, usize),
    /// Worker threads the engine resolved to.
    pub threads: usize,
    pub model: std::sync::Arc<SolvedModel>,
}

impl ColdOp {
    pub fn total(&self) -> Duration {
        self.compile + self.solve + self.answer
    }
}

/// One cold operation. `Err` = the operation failed (compile error or an
/// answer the oracle rejects).
pub fn cold_op(
    workload: Workload,
    inputs: &Inputs,
    threads: Option<usize>,
) -> Result<ColdOp, String> {
    let t0 = Instant::now();
    let mut kb = compile(workload, &inputs.program, threads)?;
    let t1 = Instant::now();
    let model = kb.solve();
    let t2 = Instant::now();
    let queries = model.source_queries();
    if queries.len() != inputs.embedded.len() {
        return Err(format!(
            "{} embedded queries, {} expected",
            queries.len(),
            inputs.embedded.len()
        ));
    }
    for (i, (query, expect)) in queries.iter().zip(&inputs.embedded).enumerate() {
        if !answer_matches(&model, query, expect) {
            return Err(format!("embedded query {} fails its oracle", i + 1));
        }
    }
    let t3 = Instant::now();
    Ok(ColdOp {
        compile: t1 - t0,
        solve: t2 - t1,
        answer: t3 - t2,
        counts: model.model().counts(),
        threads: model.solve_stats().threads,
        model,
    })
}
