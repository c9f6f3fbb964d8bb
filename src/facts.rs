//! Bulk fact loading: the tab/comma-separated fact format.

use crate::*;

// ======================================================================
// Bulk fact loading
// ======================================================================

/// Parses the parser-free bulk fact format into a typed [`FactBatch`].
///
/// One fact per line: the predicate name, then the constant arguments,
/// separated by tabs (or commas on lines containing no tab). Leading and
/// trailing whitespace per field is trimmed; blank lines and lines
/// starting with `#` or `%` are skipped. A bare predicate name is a
/// nullary fact. The first line mentioning a predicate fixes its arity
/// (consistent with any declaration the rules already made); later lines
/// and rules must agree or error with the usual arity mismatch.
///
/// ```text
/// # persons.tsv (fields tab-separated, or comma-separated as here)
/// person,alice
/// person,bob
/// employs,acme,alice
/// ```
pub fn fact_batch_from_separated(universe: &mut Universe, text: &str) -> Result<FactBatch, Error> {
    fact_batch_from_reader(universe, text.as_bytes())
}

/// Streaming variant of [`fact_batch_from_separated`]: parses the same
/// tab/comma-separated fact format from any [`std::io::BufRead`] without
/// materializing the input as one string — the path the `wfdl --facts`
/// file loader and the serving tier's `/ingest` endpoint share. Errors
/// carry the 1-based line number of the offending line, exactly as the
/// in-memory variant reports it; I/O failures surface as [`Error::Io`].
pub fn fact_batch_from_reader(
    universe: &mut Universe,
    reader: impl std::io::BufRead,
) -> Result<FactBatch, Error> {
    let mut batch = FactBatch::new();
    // Fact files are typically grouped by relation; the interner remembers
    // the last resolved predicate and reuses one argument buffer, so the
    // per-row work is constant interning — the same per-fact path the
    // `.dl` frontend takes, and the `RelationWriter` resolved-once contract.
    let mut facts = wfdl_syntax::FactInterner::default();
    for_each_fact_line(reader, |pred, arity, constants| {
        let pred = facts.pred(universe, pred, arity)?;
        let atom = facts.atom(universe, pred, constants)?;
        batch.push_atom(universe, atom)
    })?;
    Ok(batch)
}

/// The facts of `reader` (in [`fact_batch_from_separated`]'s format) that
/// `universe` already holds as atoms — the only ones a database over it can
/// store. Names resolve by lookup and nothing is interned; a line naming an
/// unknown predicate or constant is skipped. The errors are the interning
/// reader's: a predicate's first line fixes its arity, and a line that
/// contradicts it, or has an empty field, is an error.
pub(crate) fn stored_facts_from_reader(
    universe: &Universe,
    reader: impl std::io::BufRead,
) -> Result<FactBatch, Error> {
    let mut batch = FactBatch::new();
    // What the interning reader would have declared for predicates the
    // universe does not know. The names come from outside: the default,
    // collision-resistant hasher.
    let mut unknown: std::collections::HashMap<String, usize> = Default::default();
    let mut args: Vec<wfdl_core::TermId> = Vec::new();
    for_each_fact_line(reader, |name, arity, constants| {
        let pred = universe.lookup_pred(name);
        let declared = match pred {
            Some(pred) => universe.pred_arity(pred),
            None => *unknown.entry(name.to_owned()).or_insert(arity),
        };
        if declared != arity {
            return Err(wfdl_core::CoreError::ArityMismatch {
                predicate: name.to_owned(),
                declared,
                used: arity,
            });
        }
        let Some(pred) = pred else {
            return Ok(());
        };
        args.clear();
        for c in constants {
            match universe.lookup_constant(c) {
                Some(t) => args.push(t),
                None => return Ok(()),
            }
        }
        match universe.atoms.lookup(pred, &args) {
            Some(atom) => batch.push_atom(universe, atom),
            None => Ok(()),
        }
    })?;
    Ok(batch)
}

/// The line loop of the fact readers: skips blank and comment lines,
/// splits every other line into a predicate name, the arity and the
/// constant names, and hands them to `fact`. A line with an empty field,
/// and an error `fact` returns, stop the read at the line's 1-based number.
fn for_each_fact_line(
    mut reader: impl std::io::BufRead,
    mut fact: impl FnMut(&str, usize, &mut dyn Iterator<Item = &str>) -> wfdl_core::Result<()>,
) -> Result<(), Error> {
    let mut raw = String::new();
    let mut line_no: u32 = 0;
    loop {
        raw.clear();
        if reader.read_line(&mut raw)? == 0 {
            return Ok(());
        }
        line_no += 1;
        let positioned = |message: String| {
            Error::Syntax(wfdl_syntax::SyntaxError::new(
                message,
                wfdl_syntax::Pos {
                    line: line_no,
                    col: 1,
                },
            ))
        };
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let sep = if line.contains('\t') { '\t' } else { ',' };
        let mut fields = line.split(sep).map(str::trim);
        if fields.clone().any(str::is_empty) {
            return Err(positioned(format!("empty field in fact line `{line}`")));
        }
        let arity = fields.clone().count() - 1;
        let pred = fields.next().unwrap_or_default();
        fact(pred, arity, &mut fields).map_err(|e| positioned(e.to_string()))?;
    }
}
