//! A grid-map path planner (`findrte`), standing in for the US Army path
//! planning package of the paper's `routetosupplies` example (§2).
//!
//! The map is an occupancy grid with named locations. `findrte(from, to)`
//! runs A* and returns the route as a list of waypoint records. Cost is
//! driven by the number of nodes A* expands — strongly data-dependent and
//! effectively impossible to predict from the call arguments alone, which
//! makes this (like AVIS) a domain only a statistics cache can cost.

use crate::domain::{CallOutcome, ComputeCost, Domain, FunctionSig};
use hermes_common::sync::RwLock;
use hermes_common::{HermesError, Record, Result, Value};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

/// A grid coordinate.
pub type Cell = (i32, i32);

/// The terrain map: an occupancy grid plus named locations.
#[derive(Clone, Debug, Default)]
pub struct TerrainMap {
    width: i32,
    height: i32,
    blocked: std::collections::HashSet<Cell>,
    places: BTreeMap<Arc<str>, Cell>,
}

impl TerrainMap {
    /// An open map of the given size.
    pub fn new(width: i32, height: i32) -> Self {
        assert!(width > 0 && height > 0, "map must be non-empty");
        TerrainMap {
            width,
            height,
            blocked: Default::default(),
            places: BTreeMap::new(),
        }
    }

    /// Marks a cell impassable.
    pub fn block(&mut self, cell: Cell) {
        self.blocked.insert(cell);
    }

    /// Blocks a vertical wall at `x` from `y0` to `y1` inclusive, except
    /// cells listed in `gaps`.
    pub fn block_wall_x(&mut self, x: i32, y0: i32, y1: i32, gaps: &[i32]) {
        for y in y0..=y1 {
            if !gaps.contains(&y) {
                self.block((x, y));
            }
        }
    }

    /// Registers a named place. Panics if the cell is blocked or outside.
    pub fn add_place(&mut self, name: impl Into<Arc<str>>, cell: Cell) {
        assert!(self.in_bounds(cell), "place outside map");
        assert!(!self.blocked.contains(&cell), "place on blocked cell");
        self.places.insert(name.into(), cell);
    }

    fn in_bounds(&self, (x, y): Cell) -> bool {
        x >= 0 && y >= 0 && x < self.width && y < self.height
    }

    fn passable(&self, c: Cell) -> bool {
        self.in_bounds(c) && !self.blocked.contains(&c)
    }

    /// A* from `from` to `to`; returns `(path, nodes_expanded)`. `None` if
    /// unreachable.
    pub fn find_route(&self, from: Cell, to: Cell) -> (Option<Vec<Cell>>, usize) {
        if !self.passable(from) || !self.passable(to) {
            return (None, 0);
        }
        let h = |(x, y): Cell| ((x - to.0).abs() + (y - to.1).abs()) as u64;
        let mut open: BinaryHeap<Reverse<(u64, u64, Cell)>> = BinaryHeap::new();
        let mut g: HashMap<Cell, u64> = HashMap::new();
        let mut parent: HashMap<Cell, Cell> = HashMap::new();
        let mut expanded = 0usize;
        g.insert(from, 0);
        open.push(Reverse((h(from), 0, from)));
        while let Some(Reverse((_, gc, cur))) = open.pop() {
            if g.get(&cur).copied().unwrap_or(u64::MAX) < gc {
                continue; // stale entry
            }
            expanded += 1;
            if cur == to {
                let mut path = vec![cur];
                let mut c = cur;
                while let Some(&p) = parent.get(&c) {
                    path.push(p);
                    c = p;
                }
                path.reverse();
                return (Some(path), expanded);
            }
            for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                let nxt = (cur.0 + dx, cur.1 + dy);
                if !self.passable(nxt) {
                    continue;
                }
                let ng = gc + 1;
                if ng < g.get(&nxt).copied().unwrap_or(u64::MAX) {
                    g.insert(nxt, ng);
                    parent.insert(nxt, cur);
                    open.push(Reverse((ng + h(nxt), ng, nxt)));
                }
            }
        }
        (None, expanded)
    }
}

/// Cost parameters, microseconds.
#[derive(Clone, Copy, Debug)]
pub struct TerrainCostParams {
    /// Fixed per-call startup (map load, planner init).
    pub startup_us: f64,
    /// Cost per A* node expansion.
    pub per_expansion_us: f64,
}

impl Default for TerrainCostParams {
    fn default() -> Self {
        TerrainCostParams {
            startup_us: 5_000.0,
            per_expansion_us: 3.0,
        }
    }
}

/// The terrain-planner domain.
///
/// Exported functions:
///
/// | function | args | answers |
/// |---|---|---|
/// | `findrte` | from-place, to-place | singleton route: a list of `{x, y}` waypoints |
/// | `distance` | from-place, to-place | singleton route length (cells), or empty if unreachable |
/// | `places` | — | registered place names |
pub struct TerrainDomain {
    name: Arc<str>,
    map: RwLock<TerrainMap>,
    params: TerrainCostParams,
}

impl TerrainDomain {
    /// Wraps a map as a domain.
    pub fn new(name: impl Into<Arc<str>>, map: TerrainMap) -> Self {
        TerrainDomain {
            name: name.into(),
            map: RwLock::new(map),
            params: TerrainCostParams::default(),
        }
    }

    fn place(&self, map: &TerrainMap, function: &str, v: &Value) -> Result<Cell> {
        let name = v.as_str().ok_or_else(|| {
            HermesError::Type(format!(
                "{}:{function}: place must be a string, got `{v}`",
                self.name
            ))
        })?;
        map.places
            .get(name)
            .copied()
            .ok_or_else(|| HermesError::Eval(format!("{}: unknown place `{name}`", self.name)))
    }

    fn cost(&self, expanded: usize) -> ComputeCost {
        let t_all_us = self.params.startup_us + self.params.per_expansion_us * expanded as f64;
        // The planner emits nothing until the route is complete.
        ComputeCost::from_millis(t_all_us / 1000.0, t_all_us / 1000.0)
    }
}

impl Domain for TerrainDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn functions(&self) -> Vec<FunctionSig> {
        vec![
            FunctionSig::new("findrte", 2, "route between two named places"),
            FunctionSig::new("distance", 2, "route length between two places"),
            FunctionSig::new("places", 0, "registered place names"),
        ]
    }

    fn call(&self, function: &str, args: &[Value]) -> Result<CallOutcome> {
        let arity = match function {
            "places" => 0,
            "findrte" | "distance" => 2,
            other => return Err(self.unknown_function(other)),
        };
        self.check_arity(function, arity, args)?;
        let map = self.map.read();
        match function {
            "places" => {
                let names: Vec<Value> = map.places.keys().map(|k| Value::Str(k.clone())).collect();
                Ok(CallOutcome {
                    answers: names,
                    compute: self.cost(0),
                })
            }
            "findrte" | "distance" => {
                let from = self.place(&map, function, &args[0])?;
                let to = self.place(&map, function, &args[1])?;
                let (path, expanded) = map.find_route(from, to);
                let answers = match (&path, function) {
                    (Some(p), "findrte") => {
                        let waypoints: Vec<Value> = p
                            .iter()
                            .map(|(x, y)| {
                                Value::Record(Record::from_fields([
                                    ("x", Value::Int(*x as i64)),
                                    ("y", Value::Int(*y as i64)),
                                ]))
                            })
                            .collect();
                        vec![Value::List(waypoints)]
                    }
                    (Some(p), _) => vec![Value::Int(p.len() as i64 - 1)],
                    (None, _) => vec![],
                };
                Ok(CallOutcome {
                    answers,
                    compute: self.cost(expanded),
                })
            }
            _ => unreachable!("arity table covers functions"),
        }
    }
}

/// A 64×64 demo map with a wall and four named bases, used by examples and
/// experiments.
pub fn demo_map() -> TerrainMap {
    let mut m = TerrainMap::new(64, 64);
    // A wall splits the map, with two gates.
    m.block_wall_x(32, 0, 63, &[10, 50]);
    m.add_place("place1", (5, 5));
    m.add_place("pax river", (60, 8));
    m.add_place("aberdeen", (58, 60));
    m.add_place("college park", (8, 58));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_found_and_passes_gate() {
        let d = TerrainDomain::new("terraindb", demo_map());
        let out = d
            .call("findrte", &[Value::str("place1"), Value::str("pax river")])
            .unwrap();
        assert_eq!(out.answers.len(), 1);
        match &out.answers[0] {
            Value::List(wps) => {
                assert!(wps.len() > 50); // must detour through a gate
                                         // Route crosses the wall only at a gate row.
                let crossing = wps.iter().find_map(|w| match w {
                    Value::Record(r) => {
                        if r.get("x") == Some(&Value::Int(32)) {
                            r.get("y").and_then(Value::as_int)
                        } else {
                            None
                        }
                    }
                    _ => None,
                });
                assert!(matches!(crossing, Some(10) | Some(50)));
            }
            other => panic!("expected list, got {other}"),
        }
    }

    #[test]
    fn distance_matches_route_length() {
        let d = TerrainDomain::new("terraindb", demo_map());
        let dist = d
            .call("distance", &[Value::str("place1"), Value::str("pax river")])
            .unwrap();
        let route = d
            .call("findrte", &[Value::str("place1"), Value::str("pax river")])
            .unwrap();
        let n_waypoints = match &route.answers[0] {
            Value::List(wps) => wps.len() as i64,
            _ => panic!(),
        };
        assert_eq!(dist.answers, vec![Value::Int(n_waypoints - 1)]);
    }

    #[test]
    fn unreachable_returns_empty() {
        let mut m = TerrainMap::new(10, 10);
        m.block_wall_x(5, 0, 9, &[]); // no gaps
        m.add_place("a", (0, 0));
        m.add_place("b", (9, 9));
        let d = TerrainDomain::new("terraindb", m);
        let out = d
            .call("findrte", &[Value::str("a"), Value::str("b")])
            .unwrap();
        assert!(out.answers.is_empty());
        assert!(out.compute.t_all.as_millis_f64() > 0.0);
    }

    #[test]
    fn same_place_route_is_trivial() {
        let d = TerrainDomain::new("terraindb", demo_map());
        let out = d
            .call("distance", &[Value::str("place1"), Value::str("place1")])
            .unwrap();
        assert_eq!(out.answers, vec![Value::Int(0)]);
    }

    #[test]
    fn unknown_place_is_error() {
        let d = TerrainDomain::new("terraindb", demo_map());
        assert!(matches!(
            d.call("findrte", &[Value::str("atlantis"), Value::str("place1")]),
            Err(HermesError::Eval(_))
        ));
    }

    #[test]
    fn cost_tracks_search_difficulty() {
        let d = TerrainDomain::new("terraindb", demo_map());
        // Nearby pair: cheap. Cross-wall pair: expensive.
        let near = d
            .call(
                "distance",
                &[Value::str("place1"), Value::str("college park")],
            )
            .unwrap()
            .compute
            .t_all;
        let far = d
            .call("distance", &[Value::str("place1"), Value::str("aberdeen")])
            .unwrap()
            .compute
            .t_all;
        assert!(far > near);
    }

    #[test]
    fn places_lists_names() {
        let d = TerrainDomain::new("terraindb", demo_map());
        let out = d.call("places", &[]).unwrap();
        assert_eq!(out.answers.len(), 4);
    }

    #[test]
    fn astar_is_optimal_on_open_map() {
        let m = {
            let mut m = TerrainMap::new(20, 20);
            m.add_place("a", (0, 0));
            m.add_place("b", (7, 5));
            m
        };
        let (path, _) = m.find_route((0, 0), (7, 5));
        assert_eq!(path.unwrap().len() as i32 - 1, 12); // Manhattan distance
    }
}
