//! Network topology: wiring switches into a graph and routing over it.
//!
//! Section III-C discusses RCBR at network scale — hop counts, alternate
//! routes, and call-level load balancing. [`Topology`] provides the
//! minimal substrate for those experiments: a graph over switches with
//! per-link output-port assignment, shortest-path routing (BFS), and
//! least-loaded route selection among equal-length alternatives.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::path::Path;
use crate::switch::Switch;

/// A directed link from one switch to a neighbor, leaving through a
/// specific output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Destination switch index.
    pub to: usize,
    /// Output port on the source switch carrying this link.
    pub port: usize,
}

/// A switch-level topology.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    adjacency: Vec<Vec<Link>>,
    hop_latency: f64,
}

impl Topology {
    /// Create a topology over `n` switches with the given one-way per-hop
    /// latency in seconds.
    ///
    /// # Panics
    /// Panics if `n == 0` or the latency is negative.
    pub fn new(n: usize, hop_latency: f64) -> Self {
        assert!(n > 0, "topology needs at least one switch");
        assert!(
            hop_latency >= 0.0 && hop_latency.is_finite(),
            "invalid hop latency"
        );
        Self {
            adjacency: vec![Vec::new(); n],
            hop_latency,
        }
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.adjacency.len()
    }

    /// Add a unidirectional link `from -> to` via `port` on `from`.
    ///
    /// # Panics
    /// Panics on out-of-range switch indices or a duplicate link.
    pub fn add_link(&mut self, from: usize, to: usize, port: usize) {
        let n = self.num_switches();
        assert!(from < n && to < n, "switch index out of range");
        assert!(from != to, "self-links are not allowed");
        assert!(
            !self.adjacency[from].iter().any(|l| l.to == to),
            "duplicate link {from} -> {to}"
        );
        self.adjacency[from].push(Link { to, port });
    }

    /// Add a bidirectional link using `port` on both ends.
    pub fn add_duplex(&mut self, a: usize, b: usize, port: usize) {
        self.add_link(a, b, port);
        self.add_link(b, a, port);
    }

    /// Neighbors of a switch.
    pub fn links(&self, from: usize) -> &[Link] {
        &self.adjacency[from]
    }

    /// Shortest route (fewest hops) from `src` to `dst` as the list of
    /// traversed switches (including both endpoints), or `None` if
    /// unreachable.
    pub fn shortest_route(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        let n = self.num_switches();
        assert!(src < n && dst < n, "switch index out of range");
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev = vec![usize::MAX; n];
        let mut queue = VecDeque::from([src]);
        prev[src] = src;
        while let Some(u) = queue.pop_front() {
            for l in &self.adjacency[u] {
                if prev[l.to] == usize::MAX {
                    prev[l.to] = u;
                    if l.to == dst {
                        let mut route = vec![dst];
                        let mut cur = dst;
                        while cur != src {
                            cur = prev[cur];
                            route.push(cur);
                        }
                        route.reverse();
                        return Some(route);
                    }
                    queue.push_back(l.to);
                }
            }
        }
        None
    }

    /// Turn a switch route into a signaling [`Path`] (the hops a
    /// renegotiation must clear: every switch along the route).
    pub fn route_to_path(&self, route: &[usize]) -> Path {
        assert!(!route.is_empty(), "route must be nonempty");
        Path::new(route.to_vec(), self.hop_latency)
    }

    /// Up to `k` simple routes from `src` to `dst` of at most `max_len`
    /// switches, restricted to live elements: a route may only visit
    /// switches for which `alive_switch` holds and cross links for which
    /// `alive_link` holds (queried in traversal direction). Routes are
    /// returned sorted by `(length, lexicographic hop sequence)` — a total
    /// order over routes — so the selection is a pure function of the
    /// topology and the predicates, independent of caller iteration order:
    /// the property the survivable signaling plane's determinism contract
    /// rests on. The answer is the first `k` routes of that order.
    ///
    /// The search never lists every simple route, which on a 96-switch
    /// ring with chords runs to thousands per query. A BFS from `src`
    /// over live elements first finds the fewest-switch length `L`, or
    /// proves there is no route within `max_len` — where a stranded VC's
    /// recheck ends, after at most `max_len` levels. Only then does a
    /// second BFS, back from `dst`, count every switch's fewest live hops
    /// to it, and a DFS pruned by those counts collect the routes of
    /// exactly `L`, `L + 1`, … switches, one length at a time, sorting
    /// each length's batch, until it holds `k`.
    pub fn alive_routes(
        &self,
        src: usize,
        dst: usize,
        k: usize,
        max_len: usize,
        alive_switch: &dyn Fn(usize) -> bool,
        alive_link: &dyn Fn(usize, usize) -> bool,
    ) -> Vec<Vec<usize>> {
        let n = self.num_switches();
        assert!(src < n && dst < n, "switch index out of range");
        if k == 0 || max_len == 0 || !alive_switch(src) || !alive_switch(dst) {
            return Vec::new();
        }
        if src == dst {
            return vec![vec![src]];
        }
        // A route may step from `u` onto `v`.
        let step = |u: usize, v: usize| alive_switch(v) && alive_link(u, v);
        let Some(shortest) = self.live_len(src, dst, max_len, &step) else {
            return Vec::new();
        };
        let to_dst = self.live_hops_to(dst, &step);
        let mut found: Vec<Vec<usize>> = Vec::new();
        let mut route = vec![src];
        for len in shortest..=max_len {
            let batch = found.len();
            self.routes_of_len(len, &step, &to_dst, &mut route, &mut found);
            found[batch..].sort_unstable();
            if found.len() >= k {
                break;
            }
        }
        found.truncate(k);
        found
    }

    /// The fewest switches on a live route `src -> dst` (`src != dst`),
    /// if one of at most `max_len` exists: a BFS that stops at `dst` or
    /// past `max_len`.
    fn live_len(
        &self,
        src: usize,
        dst: usize,
        max_len: usize,
        step: &dyn Fn(usize, usize) -> bool,
    ) -> Option<usize> {
        let mut seen = vec![false; self.num_switches()];
        seen[src] = true;
        let mut frontier = vec![src];
        let mut next = Vec::new();
        // Switches on a route that ends in the next frontier.
        let mut len = 2;
        while len <= max_len && !frontier.is_empty() {
            for &u in &frontier {
                for l in &self.adjacency[u] {
                    if !seen[l.to] && step(u, l.to) {
                        if l.to == dst {
                            return Some(len);
                        }
                        seen[l.to] = true;
                        next.push(l.to);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            len += 1;
        }
        None
    }

    /// Per switch, the fewest live hops from it to `dst` (`usize::MAX`
    /// where there is none): a BFS from `dst` against the live links. A
    /// lower bound on the hops any simple route still needs.
    fn live_hops_to(&self, dst: usize, step: &dyn Fn(usize, usize) -> bool) -> Vec<usize> {
        let n = self.num_switches();
        let mut into: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, links) in self.adjacency.iter().enumerate() {
            for l in links.iter().filter(|l| step(u, l.to)) {
                into[l.to].push(u);
            }
        }
        let mut hops = vec![usize::MAX; n];
        hops[dst] = 0;
        let mut queue = VecDeque::from([dst]);
        while let Some(v) = queue.pop_front() {
            for &u in &into[v] {
                if hops[u] == usize::MAX {
                    hops[u] = hops[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        hops
    }

    /// Append to `found` every simple live route of exactly `len`
    /// switches that extends `route` to the switch `to_dst` counts down
    /// to, in DFS order.
    fn routes_of_len(
        &self,
        len: usize,
        step: &dyn Fn(usize, usize) -> bool,
        to_dst: &[usize],
        route: &mut Vec<usize>,
        found: &mut Vec<Vec<usize>>,
    ) {
        let u = *route.last().expect("route starts nonempty");
        for l in &self.adjacency[u] {
            // Switches the route would hold once it reached `dst` via
            // `l.to` along the fewest live hops.
            let fewest = to_dst[l.to].saturating_add(route.len() + 1);
            if fewest > len || route.contains(&l.to) || !step(u, l.to) {
                continue;
            }
            route.push(l.to);
            if to_dst[l.to] == 0 {
                if route.len() == len {
                    found.push(route.clone());
                }
            } else {
                self.routes_of_len(len, step, to_dst, route, found);
            }
            route.pop();
        }
    }

    /// Among all fewest-hop routes from `src` to `dst`, pick the one whose
    /// bottleneck (most-utilized port along the route) is least utilized —
    /// the call-level load balancing Section III-C hopes for. Returns the
    /// route, or `None` if unreachable.
    pub fn least_loaded_route(
        &self,
        switches: &[Switch],
        src: usize,
        dst: usize,
    ) -> Option<Vec<usize>> {
        let shortest = self.shortest_route(src, dst)?;
        let target_len = shortest.len();
        // Enumerate all routes of the shortest length with a bounded DFS.
        // Routes are ranked by (bottleneck utilization, total utilization):
        // the sum tie-breaks routes whose bottleneck is a shared endpoint.
        let mut best: Option<((f64, f64), Vec<usize>)> = None;
        let mut stack = vec![(vec![src], src)];
        while let Some((route, u)) = stack.pop() {
            if route.len() == target_len {
                if u == dst {
                    let utils: Vec<f64> = route
                        .iter()
                        .map(|&s| switches[s].port(0).map(|p| p.utilization()).unwrap_or(1.0))
                        .collect();
                    let key = (
                        utils.iter().cloned().fold(0.0f64, f64::max),
                        utils.iter().sum::<f64>(),
                    );
                    if best.as_ref().is_none_or(|(b, _)| key < *b) {
                        best = Some((key, route));
                    }
                }
                continue;
            }
            for l in &self.adjacency[u] {
                if !route.contains(&l.to) {
                    let mut next = route.clone();
                    next.push(l.to);
                    stack.push((next, l.to));
                }
            }
        }
        best.map(|(_, r)| r)
    }
}

#[cfg(test)]
mod reference {
    //! The exhaustive route search [`Topology::alive_routes`] replaced,
    //! kept as its oracle: list every simple live route of at most
    //! `max_len` switches, sort them all, keep the first `k`.

    use super::Topology;

    pub fn alive_routes(
        topo: &Topology,
        src: usize,
        dst: usize,
        k: usize,
        max_len: usize,
        alive_switch: &dyn Fn(usize) -> bool,
        alive_link: &dyn Fn(usize, usize) -> bool,
    ) -> Vec<Vec<usize>> {
        if k == 0 || max_len == 0 || !alive_switch(src) {
            return Vec::new();
        }
        if src == dst {
            return vec![vec![src]];
        }
        let mut found: Vec<Vec<usize>> = Vec::new();
        let mut route = vec![src];
        dfs_routes(
            topo,
            dst,
            max_len,
            alive_switch,
            alive_link,
            &mut route,
            &mut found,
        );
        found.sort();
        found.sort_by_key(|r| r.len());
        found.truncate(k);
        found
    }

    fn dfs_routes(
        topo: &Topology,
        dst: usize,
        max_len: usize,
        alive_switch: &dyn Fn(usize) -> bool,
        alive_link: &dyn Fn(usize, usize) -> bool,
        route: &mut Vec<usize>,
        found: &mut Vec<Vec<usize>>,
    ) {
        let u = *route.last().expect("route starts nonempty");
        if route.len() == max_len {
            return;
        }
        for l in topo.links(u) {
            if route.contains(&l.to) || !alive_switch(l.to) || !alive_link(u, l.to) {
                continue;
            }
            route.push(l.to);
            if l.to == dst {
                found.push(route.clone());
            } else {
                dfs_routes(topo, dst, max_len, alive_switch, alive_link, route, found);
            }
            route.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A 2x2 grid: 0-1 / 2-3 with vertical links 0-2 and 1-3.
    fn grid() -> Topology {
        let mut t = Topology::new(4, 0.001);
        t.add_duplex(0, 1, 0);
        t.add_duplex(2, 3, 0);
        t.add_duplex(0, 2, 0);
        t.add_duplex(1, 3, 0);
        t
    }

    #[test]
    fn bfs_finds_shortest() {
        let t = grid();
        let r = t.shortest_route(0, 3).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], 0);
        assert_eq!(r[2], 3);
        assert_eq!(t.shortest_route(1, 1).unwrap(), vec![1]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new(3, 0.0);
        t.add_link(0, 1, 0);
        assert!(t.shortest_route(0, 2).is_none());
        assert!(t.shortest_route(2, 0).is_none());
    }

    #[test]
    fn route_to_path_has_right_latency() {
        let t = grid();
        let r = t.shortest_route(0, 3).unwrap();
        let p = t.route_to_path(&r);
        assert_eq!(p.hops(), &r[..]);
        // Three hops each way at 1 ms a hop.
        let mut sw: Vec<Switch> = (0..4).map(|_| Switch::new(&[1000.0])).collect();
        assert_eq!(p.setup(&mut sw, 1, 0, 100.0).unwrap(), Ok(()));
        let out = p.renegotiate(&mut sw, 1, 100.0).unwrap();
        assert!((out.round_trip - 0.006).abs() < 1e-12);
    }

    #[test]
    fn load_balancing_avoids_the_hot_route() {
        let t = grid();
        let mut switches: Vec<Switch> = (0..4).map(|_| Switch::new(&[1000.0])).collect();
        // Congest switch 1: routes 0-1-3 become unattractive vs 0-2-3.
        switches[1].setup(9, 0, 900.0).unwrap();
        let r = t.least_loaded_route(&switches, 0, 3).unwrap();
        assert_eq!(r, vec![0, 2, 3], "should route around the hot switch");
        // Congest switch 2 more: flips back.
        switches[2].setup(8, 0, 950.0).unwrap();
        let r = t.least_loaded_route(&switches, 0, 3).unwrap();
        assert_eq!(r, vec![0, 1, 3]);
    }

    #[test]
    fn end_to_end_setup_over_routed_path() {
        let t = grid();
        let mut switches: Vec<Switch> = (0..4).map(|_| Switch::new(&[1000.0])).collect();
        let route = t.shortest_route(0, 3).unwrap();
        let path = t.route_to_path(&route);
        assert_eq!(path.setup(&mut switches, 5, 0, 400.0).unwrap(), Ok(()));
        for &s in &route {
            assert_eq!(switches[s].vci_rate(5), Some(400.0));
        }
    }

    /// A 6-ring with one chord 0-3.
    fn ring6() -> Topology {
        let mut t = Topology::new(6, 0.001);
        for i in 0..6 {
            t.add_duplex(i, (i + 1) % 6, 0);
        }
        t.add_duplex(0, 3, 0);
        t
    }

    #[test]
    fn alive_routes_are_sorted_and_bounded() {
        let t = ring6();
        let all = |_: usize| true;
        let link_ok = |_: usize, _: usize| true;
        let routes = t.alive_routes(0, 3, 8, 6, &all, &link_ok);
        assert!(!routes.is_empty());
        // Shortest first: the 0-3 chord.
        assert_eq!(routes[0], vec![0, 3]);
        // Sorted by (len, lex): ties in length break lexicographically.
        for w in routes.windows(2) {
            assert!(
                w[0].len() < w[1].len() || (w[0].len() == w[1].len() && w[0] < w[1]),
                "route order violated: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
        // k truncates.
        assert_eq!(t.alive_routes(0, 3, 1, 6, &all, &link_ok).len(), 1);
        // max_len bounds the enumeration (only the chord is <= 2 switches).
        assert_eq!(t.alive_routes(0, 3, 8, 2, &all, &link_ok), vec![vec![0, 3]]);
    }

    #[test]
    fn alive_routes_respect_dead_elements() {
        let t = ring6();
        let link_ok = |_: usize, _: usize| true;
        // Kill switch 3 (the destination): nothing survives.
        let no3 = |s: usize| s != 3;
        assert!(t.alive_routes(0, 3, 8, 6, &no3, &link_ok).is_empty());
        // Kill switch 1: routes must detour around it.
        let no1 = |s: usize| s != 1;
        let routes = t.alive_routes(0, 2, 8, 6, &no1, &link_ok);
        assert!(!routes.is_empty());
        for r in &routes {
            assert!(!r.contains(&1), "dead switch on route {r:?}");
        }
        assert_eq!(routes[0], vec![0, 3, 2], "chord detour is shortest");
        // Down link 0-3 removes the chord in both directions.
        let all = |_: usize| true;
        let no_chord = |a: usize, b: usize| !(a.min(b) == 0 && a.max(b) == 3);
        let routes = t.alive_routes(0, 3, 8, 6, &all, &no_chord);
        assert_eq!(routes[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn alive_routes_selection_is_a_pure_function() {
        let t = ring6();
        let all = |_: usize| true;
        let link_ok = |_: usize, _: usize| true;
        let a = t.alive_routes(4, 1, 8, 6, &all, &link_ok);
        let b = t.alive_routes(4, 1, 8, 6, &all, &link_ok);
        assert_eq!(a, b);
    }

    /// A ring of `n` with duplex `chords` (self-links and repeats
    /// skipped).
    fn ring_with_chords(n: usize, chords: impl IntoIterator<Item = (usize, usize)>) -> Topology {
        let mut t = Topology::new(n, 0.001);
        for i in 0..n {
            t.add_duplex(i, (i + 1) % n, 0);
        }
        for (a, b) in chords {
            if a != b && !t.links(a).iter().any(|l| l.to == b) {
                t.add_duplex(a, b, 0);
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The two-stage search returns exactly the exhaustive search's
        /// list, on rings plus chords with up to a fifth of the switches
        /// dead and a few links down, some in one direction only.
        #[test]
        fn alive_routes_match_the_exhaustive_reference(
            n in 3usize..41,
            chords in proptest::collection::vec((0usize..40, 0usize..40), 0..9),
            dead in proptest::collection::vec(0usize..40, 0..9),
            cut in proptest::collection::vec((0usize..40, any::<bool>()), 0..4),
            queries in proptest::collection::vec(
                (0usize..40, 0usize..40, 1usize..7, 1usize..17),
                8,
            ),
        ) {
            let t = ring_with_chords(n, chords.iter().map(|&(a, b)| (a % n, b % n)));
            let dead: Vec<usize> = dead.iter().take(n / 5).map(|&s| s % n).collect();
            // Ring link `i -> i + 1`, and its reverse unless one-way.
            let cut: Vec<(usize, usize, bool)> =
                cut.iter().map(|&(i, both)| (i % n, (i + 1) % n, both)).collect();
            let alive_switch = |s: usize| !dead.contains(&s);
            let alive_link = |a: usize, b: usize| {
                !cut.iter().any(|&(x, y, both)| (x, y) == (a, b) || (both && (y, x) == (a, b)))
            };
            for (src, dst, k, max_len) in queries {
                let (src, dst) = (src % n, dst % n);
                let want =
                    reference::alive_routes(&t, src, dst, k, max_len, &alive_switch, &alive_link);
                let got = t.alive_routes(src, dst, k, max_len, &alive_switch, &alive_link);
                prop_assert_eq!(got, want, "{} -> {}, k {}, max_len {}", src, dst, k, max_len);
            }
        }
    }

    /// `chaos_reroute`'s topology: 96 switches, chords `(i, i + 2)` every
    /// fourth switch. A VC whose destination is killed has no route, and
    /// the rest still get the reference's.
    #[test]
    fn killed_destination_on_the_chaos_topology_has_no_route() {
        let t = ring_with_chords(96, (0..94).step_by(4).map(|i| (i, i + 2)));
        let alive_switch = |s: usize| s != 49;
        let alive_link = |_: usize, _: usize| true;
        for src in [45, 46, 48, 50, 52, 53] {
            assert!(t
                .alive_routes(src, 49, 3, 16, &alive_switch, &alive_link)
                .is_empty());
        }
        for (src, dst) in [(44, 50), (48, 52), (47, 51), (0, 90)] {
            let want = reference::alive_routes(&t, src, dst, 3, 16, &alive_switch, &alive_link);
            assert!(!want.is_empty(), "{src} -> {dst}");
            assert_eq!(
                t.alive_routes(src, dst, 3, 16, &alive_switch, &alive_link),
                want,
                "{src} -> {dst}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_links_rejected() {
        let mut t = Topology::new(2, 0.0);
        t.add_link(0, 1, 0);
        t.add_link(0, 1, 1);
    }
}
