//! Identifier newtypes for network entities.

use std::fmt;

/// Identifies a processor/memory node (endpoint) in the system.
///
/// The paper evaluates 16-node systems; this reproduction supports any
/// power-of-radix node count for the scaling ablations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a directed link in a [`Fabric`](crate::Fabric).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A vertex of the fabric graph: either an endpoint node or a switch.
///
/// Vertices are numbered with nodes first (`0..num_nodes`) and switches
/// after, so a `Vertex` is a dense index usable in lookup tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vertex(pub u32);

impl Vertex {
    /// Builds the vertex for endpoint node `n`.
    #[inline]
    pub fn node(n: NodeId) -> Self {
        Vertex(n.0 as u32)
    }

    /// Builds the vertex for switch number `s` (dense switch index) in a
    /// fabric with `num_nodes` endpoints.
    #[inline]
    pub fn switch(s: u32, num_nodes: usize) -> Self {
        Vertex(num_nodes as u32 + s)
    }

    /// The dense index of this vertex.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// If this vertex is an endpoint node of a fabric with `num_nodes`
    /// nodes, returns its [`NodeId`].
    #[inline]
    pub fn as_node(self, num_nodes: usize) -> Option<NodeId> {
        (self.index() < num_nodes).then_some(NodeId(self.0 as u16))
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A set of nodes, one bit per node: a single inline word for systems of
/// up to 64 nodes, a boxed word array beyond. Every set of one system is
/// built for the same node count, so the two-set operations
/// ([`NodeSet::copy_from`], [`NodeSet::union_with`]) require equal widths.
///
/// ```
/// use tss_net::{NodeId, NodeSet};
///
/// let mut s = NodeSet::new(81); // two words
/// s.insert(NodeId(3));
/// s.insert(NodeId(70));
/// assert!(s.contains(NodeId(70)) && !s.contains(NodeId(4)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), [NodeId(3), NodeId(70)]);
/// assert_eq!(NodeSet::all(81).iter().count(), 81);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeSet(Words);

#[derive(Clone, PartialEq, Eq, Debug)]
enum Words {
    One(u64),
    Many(Box<[u64]>),
}

impl NodeSet {
    /// The empty set over nodes `0..n`.
    pub fn new(n: usize) -> Self {
        if n <= 64 {
            NodeSet(Words::One(0))
        } else {
            NodeSet(Words::Many(vec![0; n.div_ceil(64)].into_boxed_slice()))
        }
    }

    /// Every node of `0..n`, and no bit past `n - 1`.
    pub fn all(n: usize) -> Self {
        let mut s = NodeSet::new(n);
        let words = s.words_mut();
        for (i, w) in words.iter_mut().enumerate() {
            let below = n - 64 * i;
            *w = if below >= 64 { !0 } else { (1 << below) - 1 };
        }
        s
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Words::One(w) => std::slice::from_ref(w),
            Words::Many(ws) => ws,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Words::One(w) => std::slice::from_mut(w),
            Words::Many(ws) => ws,
        }
    }

    /// Adds `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` lies past the set's width.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        let i = node.index();
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Removes `node`.
    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        let i = node.index();
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `node` is in the set.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        self.words()[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes every node.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Makes this set equal to `other` without reallocating.
    pub fn copy_from(&mut self, other: &NodeSet) {
        self.words_mut().copy_from_slice(other.words());
    }

    /// Adds every node of `other`.
    pub fn union_with(&mut self, other: &NodeSet) {
        let theirs = other.words();
        let ours = self.words_mut();
        assert_eq!(ours.len(), theirs.len(), "node sets of different widths");
        for (a, b) in ours.iter_mut().zip(theirs) {
            *a |= b;
        }
    }

    /// The nodes of the set in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(NodeId((64 * i + bit) as u16))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_node_round_trip() {
        let v = Vertex::node(NodeId(5));
        assert_eq!(v.as_node(16), Some(NodeId(5)));
        assert_eq!(v.index(), 5);
    }

    #[test]
    fn vertex_switch_is_offset_and_not_a_node() {
        let v = Vertex::switch(3, 16);
        assert_eq!(v.index(), 19);
        assert_eq!(v.as_node(16), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(2).to_string(), "n2");
        assert_eq!(LinkId(7).to_string(), "l7");
        assert_eq!(Vertex(9).to_string(), "v9");
    }

    #[test]
    fn node_set_edges_of_its_words() {
        for (n, ids) in [
            (64, vec![0, 63]),
            (65, vec![0, 63, 64]),
            (65_536, vec![0, 63, 64, 65_535]),
        ] {
            let mut s = NodeSet::new(n);
            assert_eq!(s, NodeSet::new(n), "starts empty");
            for &i in &ids {
                assert!(!s.contains(NodeId(i)));
                s.insert(NodeId(i));
                assert!(s.contains(NodeId(i)), "n={n}: {i} inserted");
            }
            let got: Vec<u16> = s.iter().map(|id| id.0).collect();
            assert_eq!(got, ids, "n={n}: iteration in id order");
            for &i in &ids {
                s.remove(NodeId(i));
                assert!(!s.contains(NodeId(i)), "n={n}: {i} removed");
            }
            assert_eq!(s, NodeSet::new(n), "n={n}: empty again");
        }
    }

    #[test]
    fn node_set_all_sets_no_bit_past_n() {
        for n in [0, 1, 4, 63, 64, 65, 70, 81, 128, 256, 65_536] {
            let all = NodeSet::all(n);
            assert!(all.iter().map(NodeId::index).eq(0..n), "n={n}");
            let width = 64 * n.div_ceil(64).max(1);
            for i in n..width {
                assert!(!all.contains(NodeId(i as u16)), "n={n}: bit {i} set");
            }
        }
    }

    #[test]
    fn node_set_copy_and_union() {
        let mut a = NodeSet::new(130);
        let mut b = NodeSet::new(130);
        a.insert(NodeId(1));
        b.insert(NodeId(129));
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), [NodeId(1), NodeId(129)]);
        b.copy_from(&a);
        assert_eq!(a, b);
        b.clear();
        assert_eq!(b, NodeSet::new(130));
        assert_ne!(a, b);
    }

    #[test]
    fn small_node_sets_stay_one_inline_word() {
        assert_eq!(std::mem::size_of::<NodeSet>(), 16);
    }
}
