//! Named deterministic scenarios: the paper's campus plus three grid
//! cities of increasing scale, each fully determined by `(name, seed)`.
//!
//! | name         | map                  | nodes      |
//! |--------------|----------------------|------------|
//! | `campus_140` | Inha-like campus     | 140        |
//! | `city_1140`  | 8×8 grid city        | 1,140      |
//! | `metro_100k` | 81×81 grid city      | 100,055    |
//! | `mega_1m`    | 258×258 grid city    | 1,003,640  |
//!
//! A grid city of `bx × by` blocks has `bx + by + 2` roads and `bx × by`
//! buildings; with the Table-1 densities (10 nodes per road, 15 per
//! building) its population is `10·(bx + by + 2) + 15·bx·by`. The two
//! large scenarios exist to exercise the columnar node-state engine well
//! past the paper's scale — `metro_100k` is the largest workload of
//! `--experiment scale`, `mega_1m` the stress ceiling.

use mobigrid_adf::MobileNode;
use mobigrid_campus::Campus;

use crate::workload;

/// One named scenario: a map recipe plus its Table-1 population size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Stable scenario name, usable on the command line.
    pub name: &'static str,
    /// Grid-city dimensions in blocks; `None` is the Inha-like campus.
    pub blocks: Option<(usize, usize)>,
    /// Population size with the Table-1 per-region densities.
    pub nodes: usize,
    /// One-line description for listings.
    pub description: &'static str,
}

/// Every named scenario, smallest first.
pub const ALL: [Scenario; 4] = [
    Scenario {
        name: "campus_140",
        blocks: None,
        nodes: 140,
        description: "the paper's 140-node Inha-like campus",
    },
    Scenario {
        name: "city_1140",
        blocks: Some((8, 8)),
        nodes: 1_140,
        description: "8x8 grid city, 1,140 nodes",
    },
    Scenario {
        name: "metro_100k",
        blocks: Some((81, 81)),
        nodes: 100_055,
        description: "81x81 grid city, 100,055 nodes",
    },
    Scenario {
        name: "mega_1m",
        blocks: Some((258, 258)),
        nodes: 1_003_640,
        description: "258x258 grid city, 1,003,640 nodes",
    },
];

/// Looks a scenario up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Scenario> {
    ALL.iter().find(|s| s.name == name)
}

impl Scenario {
    /// Builds the scenario's map.
    #[must_use]
    pub fn campus(&self) -> Campus {
        match self.blocks {
            Some((bx, by)) => Campus::grid_city(bx, by),
            None => Campus::inha_like(),
        }
    }

    /// Generates the deterministic population: same `(scenario, seed)`,
    /// same nodes, bit for bit.
    #[must_use]
    pub fn population(&self, seed: u64) -> Vec<MobileNode> {
        let campus = self.campus();
        let nodes = workload::populate(&campus, seed);
        debug_assert_eq!(nodes.len(), self.nodes, "{} population drifted", self.name);
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_formula_matches_the_generator() {
        // Verify the table's node counts on the sizes cheap enough to
        // actually generate; the formula covers the rest.
        for s in &ALL[..2] {
            assert_eq!(s.population(7).len(), s.nodes, "{}", s.name);
        }
        for s in &ALL {
            if let Some((bx, by)) = s.blocks {
                assert_eq!(s.nodes, 10 * (bx + by + 2) + 15 * bx * by, "{}", s.name);
            }
        }
    }

    #[test]
    fn names_resolve_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for s in &ALL {
            assert!(seen.insert(s.name), "duplicate scenario {}", s.name);
            assert_eq!(find(s.name).unwrap().name, s.name);
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let s = find("city_1140").unwrap();
        let a = s.population(9);
        let b = s.population(9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.position(), y.position());
        }
    }
}
