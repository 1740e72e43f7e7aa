//! Network topology: nodes, directed links, and graph utilities.
//!
//! Delta-net's edge-labelled graph (§2.1, §3.2) is defined over a directed
//! graph induced by the network topology. A *node* corresponds to a switch
//! (or, per §4.1, to a `(switch, input-port)` pair when composite match
//! conditions are encoded), and a *link* is a directed edge between two
//! nodes. Every forwarding rule carries the link along which it forwards
//! matched packets.
//!
//! Dropped traffic is modelled explicitly: each node can lazily obtain a
//! *drop link* to a single shared virtual sink node, so that a drop rule is
//! just a rule whose link points at the sink. This keeps Algorithm 1/2 free
//! of special cases, exactly as the paper's `link(r)` abstraction intends
//! ("link(r) is purposefully more general than a pair of ports").

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a node (switch / port-qualified switch) in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a directed link in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The node id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The link id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A directed link `src -> dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// The link's identifier (its index in [`Topology::links`]).
    pub id: LinkId,
    /// Source node (the switch on which rules using this link live).
    pub src: NodeId,
    /// Destination node (next hop).
    pub dst: NodeId,
}

/// A directed network topology with named nodes.
///
/// Node and link identifiers are dense indices, which lets the verification
/// engines use plain vectors for all per-node / per-link state.
///
/// # Examples
///
/// ```
/// use netmodel::topology::Topology;
///
/// let mut topo = Topology::new();
/// let s1 = topo.add_node("s1");
/// let s2 = topo.add_node("s2");
/// let l = topo.add_link(s1, s2);
/// assert_eq!(topo.link(l).src, s1);
/// assert_eq!(topo.link_between(s1, s2), Some(l));
/// assert_eq!(topo.out_links(s1), &[l]);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    node_names: Vec<String>,
    links: Vec<Link>,
    out: Vec<Vec<LinkId>>,
    inbound: Vec<Vec<LinkId>>,
    by_endpoints: HashMap<(NodeId, NodeId), LinkId>,
    /// Per-node lazily created link to the drop sink.
    drop_links: Vec<Option<LinkId>>,
    /// The shared virtual sink node, created on first use.
    drop_node: Option<NodeId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node with the given human-readable name and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        self.out.push(Vec::new());
        self.inbound.push(Vec::new());
        self.drop_links.push(None);
        id
    }

    /// Adds `n` nodes named `prefix0 .. prefix(n-1)` and returns their ids.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Adds a directed link `src -> dst`, or returns the existing one if the
    /// pair is already connected.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId) -> LinkId {
        assert!(src.index() < self.node_names.len(), "unknown src {src:?}");
        assert!(dst.index() < self.node_names.len(), "unknown dst {dst:?}");
        if let Some(&id) = self.by_endpoints.get(&(src, dst)) {
            return id;
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { id, src, dst });
        self.out[src.index()].push(id);
        self.inbound[dst.index()].push(id);
        self.by_endpoints.insert((src, dst), id);
        id
    }

    /// Adds both directed links between `a` and `b` and returns them as
    /// `(a->b, b->a)`.
    pub fn add_bidi_link(&mut self, a: NodeId, b: NodeId) -> (LinkId, LinkId) {
        (self.add_link(a, b), self.add_link(b, a))
    }

    /// Returns (creating it on first use) this node's link to the virtual
    /// drop sink. Rules with a drop action use this link.
    pub fn drop_link(&mut self, node: NodeId) -> LinkId {
        if let Some(l) = self.drop_links[node.index()] {
            return l;
        }
        let sink = match self.drop_node {
            Some(s) => s,
            None => {
                let s = self.add_node("<drop>");
                self.drop_node = Some(s);
                s
            }
        };
        let l = self.add_link(node, sink);
        self.drop_links[node.index()] = Some(l);
        l
    }

    /// The virtual drop sink, if any drop link has been created.
    pub fn drop_node(&self) -> Option<NodeId> {
        self.drop_node
    }

    /// Whether `node` is the virtual drop sink.
    pub fn is_drop_node(&self, node: NodeId) -> bool {
        self.drop_node == Some(node)
    }

    /// Whether `link` is a drop link (points at the virtual sink).
    pub fn is_drop_link(&self, link: LinkId) -> bool {
        self.drop_node
            .map(|s| self.link(link).dst == s)
            .unwrap_or(false)
    }

    /// Number of nodes, including the drop sink if it exists.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of links, including drop links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The name given to `node` when it was added.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.index()]
    }

    /// Looks a node up by name (linear scan; only used by loaders and tests).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(|i| NodeId(i as u32))
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// All links, in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All node ids, in id order (including the drop sink if present).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// All node ids excluding the virtual drop sink.
    pub fn switch_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let drop = self.drop_node;
        self.nodes().filter(move |n| Some(*n) != drop)
    }

    /// The link `src -> dst`, if it exists.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.by_endpoints.get(&(src, dst)).copied()
    }

    /// Out-links of a node, in insertion order.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out[node.index()]
    }

    /// In-links of a node, in insertion order.
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        &self.inbound[node.index()]
    }

    /// Breadth-first shortest-path predecessors towards `dst`: for every node
    /// that can reach `dst`, the out-link taking it one hop closer.
    ///
    /// Drop links are never traversed. This is the primitive the workload
    /// generators use to install shortest-path routes towards a destination
    /// (the same mechanism as the paper's INET/Libra rule generation, §4.2.1).
    pub fn shortest_path_next_hop(&self, dst: NodeId) -> Vec<Option<LinkId>> {
        let mut next: Vec<Option<LinkId>> = vec![None; self.node_count()];
        let mut dist: Vec<u32> = vec![u32::MAX; self.node_count()];
        dist[dst.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            // Walk edges *into* u: predecessors of u reach dst through u.
            for &lid in self.in_links(u) {
                if self.is_drop_link(lid) {
                    continue;
                }
                let link = self.link(lid);
                let v = link.src;
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    next[v.index()] = Some(lid);
                    queue.push_back(v);
                }
            }
        }
        next
    }

    /// The sequence of links on a shortest path from `src` to `dst`, if one
    /// exists (drop links excluded).
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let next = self.shortest_path_next_hop(dst);
        let mut path = Vec::new();
        let mut cur = src;
        while cur != dst {
            let lid = next[cur.index()]?;
            path.push(lid);
            cur = self.link(lid).dst;
            if path.len() > self.node_count() {
                return None; // defensive: should be unreachable
            }
        }
        Some(path)
    }

    /// Shortest-path next hops towards `dst` when the given links are
    /// considered failed. Used by the SDN-IP simulator to recompute routes
    /// after a link failure.
    pub fn shortest_path_next_hop_avoiding(
        &self,
        dst: NodeId,
        failed: &[LinkId],
    ) -> Vec<Option<LinkId>> {
        let mut next: Vec<Option<LinkId>> = vec![None; self.node_count()];
        let mut dist: Vec<u32> = vec![u32::MAX; self.node_count()];
        dist[dst.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            for &lid in self.in_links(u) {
                if self.is_drop_link(lid) || failed.contains(&lid) {
                    continue;
                }
                let v = self.link(lid).src;
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    next[v.index()] = Some(lid);
                    queue.push_back(v);
                }
            }
        }
        next
    }

    /// Whether every switch node can reach every other switch node.
    pub fn is_strongly_connected(&self) -> bool {
        let switches: Vec<NodeId> = self.switch_nodes().collect();
        if switches.is_empty() {
            return true;
        }
        for &dst in &switches {
            let next = self.shortest_path_next_hop(dst);
            for &src in &switches {
                if src != dst && next[src.index()].is_none() {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Topology, Vec<NodeId>) {
        // s0 -> s1 -> s3, s0 -> s2 -> s3 (bidirectional)
        let mut t = Topology::new();
        let n = t.add_nodes("s", 4);
        t.add_bidi_link(n[0], n[1]);
        t.add_bidi_link(n[1], n[3]);
        t.add_bidi_link(n[0], n[2]);
        t.add_bidi_link(n[2], n[3]);
        (t, n)
    }

    #[test]
    fn add_nodes_and_links() {
        let (t, n) = diamond();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 8);
        assert_eq!(t.node_name(n[2]), "s2");
        assert_eq!(t.node_by_name("s3"), Some(n[3]));
        assert_eq!(t.node_by_name("nope"), None);
    }

    #[test]
    fn add_link_is_idempotent() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l1 = t.add_link(a, b);
        let l2 = t.add_link(a, b);
        assert_eq!(l1, l2);
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn out_and_in_links() {
        let (t, n) = diamond();
        assert_eq!(t.out_links(n[0]).len(), 2);
        assert_eq!(t.in_links(n[3]).len(), 2);
        for &lid in t.out_links(n[0]) {
            assert_eq!(t.link(lid).src, n[0]);
        }
    }

    #[test]
    fn drop_link_creates_single_sink() {
        let (mut t, n) = diamond();
        let d0 = t.drop_link(n[0]);
        let d1 = t.drop_link(n[1]);
        let d0_again = t.drop_link(n[0]);
        assert_eq!(d0, d0_again);
        assert_ne!(d0, d1);
        assert!(t.is_drop_link(d0));
        assert!(t.is_drop_link(d1));
        let sink = t.drop_node().unwrap();
        assert!(t.is_drop_node(sink));
        assert_eq!(t.link(d0).dst, sink);
        assert_eq!(t.link(d1).dst, sink);
        // The switch iterator excludes the sink.
        assert_eq!(t.switch_nodes().count(), 4);
    }

    #[test]
    fn shortest_path_in_diamond() {
        let (t, n) = diamond();
        let path = t.shortest_path(n[0], n[3]).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(t.link(path[0]).src, n[0]);
        assert_eq!(t.link(path[1]).dst, n[3]);
        assert_eq!(t.shortest_path(n[0], n[0]), Some(vec![]));
    }

    #[test]
    fn shortest_path_next_hop_covers_all_nodes() {
        let (t, n) = diamond();
        let next = t.shortest_path_next_hop(n[3]);
        for &src in &n {
            if src == n[3] {
                assert!(next[src.index()].is_none());
            } else {
                assert!(next[src.index()].is_some());
            }
        }
    }

    #[test]
    fn shortest_path_avoiding_failed_link() {
        let (t, n) = diamond();
        let via_1 = t.link_between(n[0], n[1]).unwrap();
        let next = t.shortest_path_next_hop_avoiding(n[3], &[via_1]);
        // s0 must now route via s2.
        let lid = next[n[0].index()].unwrap();
        assert_eq!(t.link(lid).dst, n[2]);
    }

    #[test]
    fn disconnected_node_has_no_path() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_link(a, b);
        assert!(t.shortest_path(a, c).is_none());
        assert!(!t.is_strongly_connected());
    }

    #[test]
    fn diamond_is_strongly_connected() {
        let (t, _) = diamond();
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn drop_links_are_not_traversed_by_paths() {
        let (mut t, n) = diamond();
        t.drop_link(n[0]);
        let sink = t.drop_node().unwrap();
        assert!(t.shortest_path(n[0], sink).is_none() || !t.is_strongly_connected());
        // The sink is not a switch node, so strong connectivity among
        // switches still holds.
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(7).to_string(), "l7");
    }
}
