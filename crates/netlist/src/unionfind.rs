//! Union-find (disjoint sets) with path compression and union by rank.

/// A classic disjoint-set forest over `u32` node ids.
///
/// # Example
///
/// ```
/// use diic_netlist::UnionFind;
/// let mut uf = UnionFind::new();
/// let a = uf.make();
/// let b = uf.make();
/// let c = uf.make();
/// uf.union(a, b);
/// assert!(uf.same(a, b));
/// assert!(!uf.same(a, c));
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates an empty forest.
    pub fn new() -> Self {
        UnionFind::default()
    }

    /// Creates a forest of `nodes` singletons, ids `0..nodes`.
    pub fn with_nodes(nodes: usize) -> Self {
        UnionFind {
            parent: (0..nodes as u32).collect(),
            rank: vec![0; nodes],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Creates a new singleton node and returns its id.
    pub fn make(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Finds the canonical representative of `x` (with path compression).
    ///
    /// # Panics
    ///
    /// Panics if `x` was not created by [`UnionFind::make`].
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns the new root.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        hi
    }

    /// True if `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of distinct sets.
    pub fn set_count(&mut self) -> usize {
        let n = self.parent.len();
        (0..n as u32).filter(|&i| self.find(i) == i).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_distinct() {
        let mut uf = UnionFind::new();
        let ids: Vec<u32> = (0..5).map(|_| uf.make()).collect();
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.set_count(), 5);
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i + 1) {
                assert!(!uf.same(a, b));
            }
        }
    }

    #[test]
    fn chain_union() {
        let mut uf = UnionFind::new();
        let ids: Vec<u32> = (0..10).map(|_| uf.make()).collect();
        for w in ids.windows(2) {
            uf.union(w[0], w[1]);
        }
        assert_eq!(uf.set_count(), 1);
        assert!(uf.same(ids[0], ids[9]));
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new();
        let a = uf.make();
        let b = uf.make();
        let r1 = uf.union(a, b);
        let r2 = uf.union(a, b);
        assert_eq!(r1, r2);
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn two_islands() {
        let mut uf = UnionFind::new();
        let ids: Vec<u32> = (0..6).map(|_| uf.make()).collect();
        uf.union(ids[0], ids[1]);
        uf.union(ids[1], ids[2]);
        uf.union(ids[3], ids[4]);
        assert_eq!(uf.set_count(), 3); // {0,1,2} {3,4} {5}
        assert!(uf.same(ids[0], ids[2]));
        assert!(!uf.same(ids[2], ids[3]));
    }
}
