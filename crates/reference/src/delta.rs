//! The paper's depth bound `δ` (Proposition 12).
//!
//! `δ := 2 · |R| · (2w)^w · 2^(|R| · (2w)^w)` where `w` is the maximum arity
//! of a predicate in the schema `R`. If `WFS(D ∪ Σf) |= Q` for an NBCQ `Q`
//! with `n` literals, then a witnessing homomorphism exists within depth
//! `n·δ` of the chase forest. The bound is doubly exponential in `w` — it
//! exists to prove decidability, and is computable here mostly so that code
//! and experiments can *report* it honestly next to the depths that suffice
//! in practice.

use wfdl_core::SchemaStats;

/// Computes `(2w)^w` with checked arithmetic.
fn two_w_pow_w(w: u128) -> Option<u128> {
    let base = w.checked_mul(2)?;
    let mut acc: u128 = 1;
    for _ in 0..w {
        acc = acc.checked_mul(base)?;
    }
    Some(acc)
}

/// The paper's `δ` for a schema, or `None` if it overflows `u128`.
///
/// For `w = 0` (propositional schemas) the formula degenerates gracefully:
/// `(2·0)^0 = 1`.
pub fn paper_delta(schema: SchemaStats) -> Option<u128> {
    let r = schema.num_preds as u128;
    let w = schema.max_arity as u128;
    let pow = two_w_pow_w(w)?;
    let exponent = r.checked_mul(pow)?;
    if exponent >= 128 {
        // 2^exponent no longer fits; the bound is astronomically large.
        return None;
    }
    let two_pow = 1u128.checked_shl(exponent as u32)?;
    2u128.checked_mul(r)?.checked_mul(pow)?.checked_mul(two_pow)
}

/// Query depth bound `n·δ` for an NBCQ with `n` literals.
pub fn query_depth_bound(schema: SchemaStats, n_literals: usize) -> Option<u128> {
    paper_delta(schema)?.checked_mul(n_literals as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(num_preds: usize, max_arity: usize) -> SchemaStats {
        SchemaStats {
            num_preds,
            max_arity,
        }
    }

    #[test]
    fn propositional_schema() {
        // w = 0: (2w)^w = 1, δ = 2·|R|·1·2^|R|.
        assert_eq!(paper_delta(stats(1, 0)), Some(4)); // 2·1·1·2^1
        assert_eq!(paper_delta(stats(3, 0)), Some(2 * 3 * 8));
    }

    #[test]
    fn unary_schema() {
        // w = 1: (2w)^w = 2, δ = 2·|R|·2·2^(2|R|).
        assert_eq!(paper_delta(stats(1, 1)), Some(16)); // 2·1·2·2^2
        assert_eq!(paper_delta(stats(2, 1)), Some(2 * 2 * 2 * 16));
    }

    #[test]
    fn binary_schema_is_already_huge() {
        // w = 2: (2w)^w = 16; exponent = 16·|R|.
        let d = paper_delta(stats(1, 2)).unwrap();
        assert_eq!(d, 2 * 16 * (1u128 << 16));
        // |R| = 8 → exponent 128 → overflow.
        assert_eq!(paper_delta(stats(8, 2)), None);
    }

    #[test]
    fn wide_schemas_overflow() {
        assert_eq!(paper_delta(stats(3, 3)), None);
        assert_eq!(paper_delta(stats(10, 8)), None);
    }

    #[test]
    fn query_bound_scales_linearly() {
        let d = paper_delta(stats(1, 1)).unwrap();
        assert_eq!(query_depth_bound(stats(1, 1), 3), Some(3 * d));
    }
}
