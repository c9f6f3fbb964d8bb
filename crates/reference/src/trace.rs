//! Stage traces: a structured, renderable record of how a well-founded
//! model was computed — which literal entered at which stage, and (for the
//! definitional engine) why.
//!
//! The paper's Example 9 is exactly such a trace (`Ŵ_{P,1}`, `Ŵ_{P,2}`, …
//! up to `Ŵ_{P,ω+2}`); [`StageTrace::render`] prints models in that style.

use crate::StagedResult;
use wfdl_core::{AtomId, Truth, Universe};

/// One literal's entry into the fixpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Stage at which the literal was decided.
    pub stage: u32,
    /// The atom.
    pub atom: AtomId,
    /// `True` or `False` (never `Unknown`).
    pub value: Truth,
}

/// A per-stage view of an engine run.
#[derive(Clone, Debug, Default)]
pub struct StageTrace {
    entries: Vec<TraceEntry>,
    /// Total number of productive stages.
    pub stages: u32,
}

impl StageTrace {
    /// Builds a trace from an oracle's staged result, ordered by (stage,
    /// polarity true-first, atom id).
    pub fn from_result(result: &StagedResult) -> StageTrace {
        let mut entries: Vec<TraceEntry> = result
            .stage
            .iter()
            .map(|(atom, stage)| TraceEntry {
                stage,
                atom,
                value: result.value(atom),
            })
            .collect();
        entries.sort_by_key(|e| (e.stage, e.value != Truth::True, e.atom));
        StageTrace {
            entries,
            stages: result.result.stages,
        }
    }

    /// All entries in stage order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries of one stage.
    pub fn stage(&self, stage: u32) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.stage == stage)
    }

    /// Literals decided per stage: `(stage, true count, false count)`.
    pub fn histogram(&self) -> Vec<(u32, usize, usize)> {
        let mut out: Vec<(u32, usize, usize)> = Vec::new();
        for e in &self.entries {
            if out.last().map(|l| l.0) != Some(e.stage) {
                out.push((e.stage, 0, 0));
            }
            if let Some(last) = out.last_mut() {
                if e.value.is_true() {
                    last.1 += 1;
                } else {
                    last.2 += 1;
                }
            }
        }
        out
    }

    /// The stage at which the model's last literal settled (equals
    /// [`StageTrace::stages`] for productive runs).
    pub fn settled_stage(&self) -> u32 {
        self.entries.iter().map(|e| e.stage).max().unwrap_or(0)
    }

    /// Renders the trace in the paper's Example 9 style, capped at
    /// `max_per_stage` literals per stage.
    pub fn render(&self, universe: &Universe, max_per_stage: usize) -> String {
        let mut out = String::new();
        let mut current = 0u32;
        let mut shown = 0usize;
        let mut suppressed = 0usize;
        let flush = |out: &mut String, suppressed: &mut usize| {
            if *suppressed > 0 {
                out.push_str(&format!("  … {suppressed} more\n"));
                *suppressed = 0;
            }
        };
        for e in &self.entries {
            if e.stage != current {
                flush(&mut out, &mut suppressed);
                current = e.stage;
                shown = 0;
                out.push_str(&format!("-- stage {current} --\n"));
            }
            if shown >= max_per_stage {
                suppressed += 1;
                continue;
            }
            shown += 1;
            let sign = if e.value.is_true() { "" } else { "¬" };
            out.push_str(&format!("  {sign}{}\n", universe.display_atom(e.atom)));
        }
        flush(&mut out, &mut suppressed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForwardEngine, StepMode, WpEngine};
    use wfdl_chase::paper::example4;
    use wfdl_core::Universe;
    use wfdl_wfs::solver::{solve, WellFoundedModel, WfsOptions};

    /// Traces a stage-faithful oracle engine (the production engine's
    /// stages are component ordinals) on Example 4's depth-5 segment.
    fn trace_example4(oracle: fn(&WellFoundedModel) -> StagedResult) -> (Universe, StageTrace) {
        let mut u = Universe::new();
        let (db, sigma) = example4(&mut u);
        let model = solve(&mut u, &db, &sigma, WfsOptions::depth(5));
        (u, StageTrace::from_result(&oracle(&model)))
    }

    fn forward(model: &WellFoundedModel) -> StagedResult {
        ForwardEngine::new(&model.segment).solve_staged()
    }

    fn wp_literal(model: &WellFoundedModel) -> StagedResult {
        WpEngine::new(&model.ground).solve_staged(StepMode::Literal)
    }

    #[test]
    fn trace_is_stage_sorted_and_complete() {
        let (_u, trace) = trace_example4(forward);
        assert!(!trace.entries().is_empty());
        assert!(trace.entries().windows(2).all(|w| w[0].stage <= w[1].stage));
        assert_eq!(trace.settled_stage(), trace.stages);
    }

    #[test]
    fn histogram_sums_to_entry_count() {
        let (_u, trace) = trace_example4(wp_literal);
        let total: usize = trace.histogram().iter().map(|(_, t, f)| t + f).sum();
        assert_eq!(total, trace.entries().len());
    }

    #[test]
    fn render_shows_example9_stage1() {
        let (u, trace) = trace_example4(forward);
        let text = trace.render(&u, 100);
        // Stage 1 contains the R-chain and P(0,0) (Example 9's Ŵ_{P,1}).
        let stage1: Vec<String> = trace
            .stage(1)
            .map(|e| u.display_atom(e.atom).to_string())
            .collect();
        assert!(stage1.iter().any(|s| s == "R(0,0,1)"), "{stage1:?}");
        assert!(stage1.iter().any(|s| s == "P(0,0)"), "{stage1:?}");
        assert!(text.starts_with("-- stage 1 --"), "{text}");
        // Q(1) is refuted at stage 2.
        assert!(text.contains("¬Q(1)"), "{text}");
    }

    #[test]
    fn render_caps_per_stage() {
        let (u, trace) = trace_example4(forward);
        let text = trace.render(&u, 1);
        assert!(text.contains("more"), "{text}");
    }
}
