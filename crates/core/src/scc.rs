//! Tarjan's strongly connected components: the one walk the workspace
//! runs, for the engine's condensation of a ground program, its resume's
//! forward walk over a delta's cone, and the analyzer's predicate and
//! position graphs.
//!
//! Roots are tried in node order, successors in the order `succ` lists
//! them, and components are numbered in emission order, each one after
//! every component it reaches. So the numbering is a function of the edge
//! order alone.

use crate::csr::Csr;
use crate::BitSet;

/// Tarjan's output over node ids, in one flat CSR.
#[derive(Clone, Debug)]
pub struct Sccs {
    /// Node → component id (emission order).
    pub comp_of: Vec<u32>,
    /// Row `c`: the nodes of component `c`, in the order the walk popped
    /// them.
    pub comps: Csr<u32>,
}

impl Sccs {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.comps.num_rows()
    }

    /// The nodes of component `c`.
    pub fn component(&self, c: usize) -> &[u32] {
        self.comps.row(c)
    }
}

/// How Tarjan's walk numbers the items it reaches: densely, in the order it
/// reaches them, after the roots.
pub trait Nodes {
    /// The node of item `x`, numbered next if the walk has not reached it.
    fn node(&mut self, x: u32) -> u32;
    /// The item of node `v`.
    fn item(&self, v: u32) -> u32;
}

/// The numbering of a whole graph: every node is a root and its own item.
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl Nodes for Identity {
    #[inline]
    fn node(&mut self, x: u32) -> u32 {
        x
    }

    #[inline]
    fn item(&self, v: u32) -> u32 {
        v
    }
}

/// Tarjan's algorithm, iterative, over the items reachable from the roots
/// — the nodes `0..roots`, tried in order. `succ(x)` lists the successors
/// of item `x`, and `nodes` numbers the items as the walk reaches them.
/// The result is in nodes, and each component is emitted after every
/// component it reaches.
pub fn tarjan<N: Nodes, I: Iterator<Item = u32>>(
    roots: u32,
    nodes: &mut N,
    succ: impl Fn(u32) -> I,
) -> Sccs {
    const UNVISITED: u32 = u32::MAX;
    let n = roots as usize;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = BitSet::with_capacity(n);
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![UNVISITED; n];
    let mut comps = Csr {
        off: vec![0],
        items: Vec::with_capacity(n),
    };
    let mut next_index = 0u32;
    // Explicit DFS frames: (node, its successors still to try).
    let mut frames: Vec<(u32, I)> = Vec::new();

    for v0 in 0..roots {
        if index[v0 as usize] != UNVISITED {
            continue;
        }
        let mut enter = Some(v0);
        loop {
            if let Some(v) = enter.take() {
                if v as usize >= index.len() {
                    index.resize(v as usize + 1, UNVISITED);
                    low.resize(v as usize + 1, 0);
                    comp_of.resize(v as usize + 1, UNVISITED);
                }
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack.insert(v as usize);
                frames.push((v, succ(nodes.item(v))));
            }
            let Some((v, next)) = frames.last_mut() else {
                break;
            };
            let v = *v;
            if let Some(b) = next.next() {
                let w = nodes.node(b);
                match index.get(w as usize) {
                    Some(&i) if i != UNVISITED => {
                        if on_stack.contains(w as usize) {
                            low[v as usize] = low[v as usize].min(i);
                        }
                    }
                    _ => enter = Some(w),
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let id = comps.num_rows() as u32;
                    loop {
                        // Tarjan invariant: `v` stays on the stack
                        // until its own SCC is emitted right here.
                        #[allow(clippy::expect_used)]
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack.remove(w as usize);
                        comp_of[w as usize] = id;
                        comps.items.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.off.push(comps.items.len() as u32);
                }
            }
        }
    }

    Sccs { comp_of, comps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `reach[u][v]`: `v` is reachable from `u` (each node from itself).
    fn reachability(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<bool>> {
        let mut reach = vec![vec![false; n]; n];
        for (u, row) in reach.iter_mut().enumerate() {
            let mut todo = vec![u];
            while let Some(x) = todo.pop() {
                if !std::mem::replace(&mut row[x], true) {
                    todo.extend(
                        edges
                            .iter()
                            .filter(|e| e.0 as usize == x)
                            .map(|e| e.1 as usize),
                    );
                }
            }
        }
        reach
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Two nodes share a component iff each reaches the other, the
        /// rows list each node once under its component, and a component
        /// is emitted after every component it reaches.
        #[test]
        fn components_are_mutual_reachability_in_emission_order(
            n in 1usize..10,
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..24),
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|&(u, v)| (u as usize) < n && (v as usize) < n)
                .collect();
            let succ = |x: u32| edges.iter().filter(move |e| e.0 == x).map(|e| e.1);
            let sccs = tarjan(n as u32, &mut Identity, succ);
            let reach = reachability(n, &edges);
            let pairs = (0..n).flat_map(|u| (0..n).map(move |v| (u, v)));
            for (u, v) in pairs {
                let same = sccs.comp_of[u] == sccs.comp_of[v];
                prop_assert_eq!(same, reach[u][v] && reach[v][u]);
                if reach[u][v] {
                    prop_assert!(sccs.comp_of[v] <= sccs.comp_of[u]);
                }
            }
            let mut listed = 0;
            for c in 0..sccs.num_components() {
                for &v in sccs.component(c) {
                    prop_assert_eq!(sccs.comp_of[v as usize] as usize, c);
                    listed += 1;
                }
            }
            prop_assert_eq!(listed, n);
        }
    }
}
