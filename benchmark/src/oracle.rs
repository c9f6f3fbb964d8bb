//! Answer checking that does not go through the program under test.
//!
//! Three of the workloads have closed-form answers (computed next to their
//! generators in [`crate::gen`]); win–move needs the small retrograde
//! solver here. [`check`] compares what the program said — through the
//! direct API or as an HTTP response body — with what it must say.

use crate::gen::{AnswerDigest, Expect, Query};
use crate::json::Json;

/// A three-valued verdict, spelled the way the program prints it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    True,
    False,
    Unknown,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::True => "true",
            Verdict::False => "false",
            Verdict::Unknown => "unknown",
        }
    }
}

/// Retrograde analysis of the game `win(X) ← move(X,Y), ¬win(Y)` over
/// positions `0..n`: a position with a move to a lost position is won
/// (`True`), a position all of whose moves lead to won positions — or that
/// has none — is lost (`False`), and whatever is never decided sits on a
/// draw cycle (`Unknown`). These are exactly the well-founded verdicts of
/// `win`. Duplicate moves are harmless: they are counted and discounted
/// the same number of times.
pub fn solve_game(n: usize, moves: &[(u32, u32)]) -> Vec<Verdict> {
    let mut open_moves = vec![0u32; n];
    let mut pred_start = vec![0u32; n + 1];
    for &(a, b) in moves {
        open_moves[a as usize] += 1;
        pred_start[b as usize + 1] += 1;
    }
    for i in 0..n {
        pred_start[i + 1] += pred_start[i];
    }
    let mut fill = pred_start.clone();
    let mut preds = vec![0u32; moves.len()];
    for &(a, b) in moves {
        preds[fill[b as usize] as usize] = a;
        fill[b as usize] += 1;
    }
    let mut status = vec![Verdict::Unknown; n];
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&i| open_moves[i as usize] == 0)
        .collect();
    for &i in &queue {
        status[i as usize] = Verdict::False;
    }
    while let Some(y) = queue.pop() {
        let lost = status[y as usize] == Verdict::False;
        for &x in &preds[pred_start[y as usize] as usize..pred_start[y as usize + 1] as usize] {
            let x = x as usize;
            if status[x] != Verdict::Unknown {
                continue;
            }
            if lost {
                status[x] = Verdict::True;
                queue.push(x as u32);
            } else {
                open_moves[x] -= 1;
                if open_moves[x] == 0 {
                    status[x] = Verdict::False;
                    queue.push(x as u32);
                }
            }
        }
    }
    status
}

/// What the program answered to one query.
pub enum Got<'a> {
    Truth(&'a str),
    Answers(AnswerDigest),
}

/// True iff the answer is the expected one.
pub fn check(expect: &Expect, got: &Got<'_>) -> bool {
    match (expect, got) {
        (Expect::Truth(v), Got::Truth(s)) => v.as_str() == *s,
        (Expect::Answers(d), Got::Answers(g)) => d == g,
        _ => false,
    }
}

/// The parts of a `POST /query` response body: its epoch and its results.
fn response_parts(doc: &Json) -> Option<(u64, &[Json])> {
    let epoch = doc.get("epoch")?.as_f64()? as u64;
    Some((epoch, doc.get("results")?.as_array()?))
}

/// The epoch of a well-formed response carrying `results` results, without
/// judging the answers (for reads whose right answer depends on how far a
/// concurrent ingest got).
pub fn response_epoch(body: &str, results: usize) -> Option<u64> {
    let doc = Json::parse(body).ok()?;
    let (epoch, found) = response_parts(&doc)?;
    (found.len() == results).then_some(epoch)
}

/// Checks a `POST /query` response body against the queries it answers:
/// one result per query, in order, each matching its oracle. Returns the
/// response's epoch, or `None` on any mismatch or malformed body.
pub fn check_response(body: &str, queries: &[Query]) -> Option<u64> {
    let doc = Json::parse(body).ok()?;
    let (epoch, results) = response_parts(&doc)?;
    if results.len() != queries.len() {
        return None;
    }
    for (result, query) in results.iter().zip(queries) {
        let got = match result.get("truth") {
            Some(t) => Got::Truth(t.as_str()?),
            None => {
                let mut digest = AnswerDigest::default();
                for tuple in result.get("answers")?.as_array()? {
                    match tuple.as_array()? {
                        [one] => digest.add(one.as_str()?),
                        _ => return None,
                    }
                }
                Got::Answers(digest)
            }
        };
        if !check(&query.expect, &got) {
            return None;
        }
    }
    Some(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn game_solver_knows_all_three_outcomes() {
        // 0 → 1 → 2 (terminal): 2 lost, 1 won, 0 lost.
        // 3 ⇄ 4: a draw cycle. 5 → 3 and 5 → 2: won through 2.
        // 6 → 6: a self-loop is a draw.
        let moves = [(0, 1), (1, 2), (3, 4), (4, 3), (5, 3), (5, 2), (6, 6)];
        let s = solve_game(7, &moves);
        use Verdict::*;
        assert_eq!(s, [False, True, False, Unknown, Unknown, True, Unknown]);
    }

    #[test]
    fn game_solver_ignores_duplicate_moves() {
        let once = solve_game(3, &[(0, 1), (1, 2)]);
        let twice = solve_game(3, &[(0, 1), (0, 1), (1, 2), (1, 2)]);
        assert_eq!(once, twice);
    }

    #[test]
    fn one_wrong_expected_answer_is_detected() {
        let q = |text: &str, v| Query {
            text: text.to_owned(),
            expect: Expect::Truth(v),
        };
        let body = r#"{"epoch":3,"results":[{"query":"?- a.","truth":"true"},{"query":"?- b.","truth":"unknown"}]}"#;
        let right = [q("?- a.", Verdict::True), q("?- b.", Verdict::Unknown)];
        assert_eq!(check_response(body, &right), Some(3));
        let wrong = [q("?- a.", Verdict::True), q("?- b.", Verdict::False)];
        assert_eq!(check_response(body, &wrong), None);
        // A missing result is a mismatch too.
        assert_eq!(check_response(body, &right[..1]), None);
    }

    #[test]
    fn answer_sets_compare_as_sets() {
        let scan = Query {
            text: "?(X) p(X).".to_owned(),
            expect: Expect::Answers(AnswerDigest::of(["a", "b", "c"])),
        };
        let body = |answers: &str| {
            format!(r#"{{"epoch":1,"results":[{{"query":"q","answers":[{answers}]}}]}}"#)
        };
        let q = std::slice::from_ref(&scan);
        assert_eq!(check_response(&body(r#"["c"],["a"],["b"]"#), q), Some(1));
        assert_eq!(check_response(&body(r#"["a"],["b"]"#), q), None);
        assert_eq!(check_response(&body(r#"["a"],["b"],["d"]"#), q), None);
    }
}
