//! `pins.json`: the facts that make two runs comparable.
//!
//! The frozen request rates, the exit split each serve workload must
//! show, the band the fleet's simulated statistics must stay in and the
//! cache traffic library generation must produce. A run whose workload
//! drifts off a pin fails with a message naming the pin instead of
//! reporting numbers that compare with nothing. Bands, not
//! fingerprints: a statistically equivalent simulator still passes.
//!
//! The file is compiled in, and parsing is strict — the vendored serde
//! ignores unknown keys, so a typo would otherwise silently unpin.

use serde::Value;
use std::collections::BTreeMap;

/// Pins of one serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePins {
    /// `r1`, `r2`, `r3` in requests per second.
    pub rates_rps: [f64; 3],
    /// Lowest admissible share of the pool retiring at each exit.
    pub exit_share_min: [f64; 3],
    /// Highest admissible share of the pool retiring at each exit.
    pub exit_share_max: [f64; 3],
}

/// Reference statistics of one fleet phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPhasePins {
    /// Fleet QoE.
    pub qoe: f64,
    /// Fleet inference loss, percent.
    pub loss_pct: f64,
    /// Reconfigurations across the fleet.
    pub reconfigs: f64,
}

/// Fleet pins: per-phase references and the band around them.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPins {
    /// `sparse` and `dense`.
    pub phases: BTreeMap<String, FleetPhasePins>,
    /// Absolute QoE tolerance.
    pub qoe_tol: f64,
    /// Loss tolerance in percentage points.
    pub loss_pp_tol: f64,
    /// Relative reconfiguration-count tolerance.
    pub reconfig_rel_tol: f64,
    /// Absolute floor of the reconfiguration tolerance (a reference of
    /// 0 would otherwise admit nothing).
    pub reconfig_abs_tol: f64,
}

/// Library-generation pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibraryPins {
    /// Entries across the PR-Only and AdaPEx libraries.
    pub entries: u64,
    /// Cache misses of a cold run.
    pub misses_cold: u64,
    /// Cache hits of a warm run.
    pub hits_warm: u64,
    /// Cache misses of a warm run.
    pub misses_warm: u64,
}

/// Everything in `pins.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pins {
    /// Per serve workload.
    pub serve: BTreeMap<String, ServePins>,
    /// Fleet simulation.
    pub fleet: FleetPins,
    /// Library generation.
    pub library: LibraryPins,
}

/// A JSON object whose every key must be consumed.
struct Object<'a> {
    path: String,
    entries: &'a [(String, Value)],
    seen: Vec<&'a str>,
}

impl<'a> Object<'a> {
    fn new(value: &'a Value, path: &str) -> Result<Self, String> {
        let entries = value
            .as_object()
            .ok_or_else(|| format!("{path}: expected an object, found {}", value.kind()))?;
        Ok(Object {
            path: path.to_string(),
            entries,
            seen: Vec::new(),
        })
    }

    fn get(&mut self, key: &'a str) -> Result<&'a Value, String> {
        self.seen.push(key);
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{}: missing key \"{key}\"", self.path))
    }

    fn number(&mut self, key: &'a str) -> Result<f64, String> {
        let path = self.path.clone();
        self.get(key)?
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{path}.{key}: expected a finite number"))
    }

    fn count(&mut self, key: &'a str) -> Result<u64, String> {
        let path = self.path.clone();
        self.get(key)?
            .as_u64()
            .ok_or_else(|| format!("{path}.{key}: expected a non-negative integer"))
    }

    fn triple(&mut self, key: &'a str) -> Result<[f64; 3], String> {
        let path = format!("{}.{key}", self.path);
        let items = self
            .get(key)?
            .as_array()
            .ok_or_else(|| format!("{path}: expected an array"))?;
        let nums: Vec<f64> = items.iter().filter_map(Value::as_f64).collect();
        <[f64; 3]>::try_from(nums).map_err(|_| format!("{path}: expected three numbers"))
    }

    fn object(&mut self, key: &'a str) -> Result<Object<'a>, String> {
        let path = format!("{}.{key}", self.path);
        Object::new(self.get(key)?, &path)
    }

    /// Child objects of every remaining key (a map keyed by name).
    fn children(mut self) -> Result<Vec<(&'a str, Object<'a>)>, String> {
        let mut out = Vec::new();
        for (k, v) in self.entries {
            if !self.seen.contains(&k.as_str()) {
                out.push((k.as_str(), Object::new(v, &format!("{}.{k}", self.path))?));
                self.seen.push(k);
            }
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), String> {
        match self
            .entries
            .iter()
            .find(|(k, _)| !self.seen.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("{}: unknown key \"{k}\"", self.path)),
            None => Ok(()),
        }
    }
}

impl Pins {
    /// The pins compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the committed `pins.json` does not parse — a broken
    /// checkout, not a measurement.
    pub fn load() -> Pins {
        Pins::parse(include_str!("../pins.json")).unwrap_or_else(|e| panic!("pins.json: {e}"))
    }

    /// Parses `text`, rejecting unknown and missing keys at every level.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let mut top = Object::new(&root, "pins")?;
        if top.count("schema")? != 1 {
            return Err("pins.schema: this harness reads schema 1".into());
        }

        let mut serve = BTreeMap::new();
        for (name, mut o) in top.object("serve")?.children()? {
            let pins = ServePins {
                rates_rps: o.triple("rates_rps")?,
                exit_share_min: o.triple("exit_share_min")?,
                exit_share_max: o.triple("exit_share_max")?,
            };
            o.finish()?;
            if !pins.rates_rps.windows(2).all(|w| 0.0 < w[0] && w[0] < w[1]) {
                return Err(format!(
                    "pins.serve.{name}.rates_rps: must be positive and increasing"
                ));
            }
            serve.insert(name.to_string(), pins);
        }

        let mut f = top.object("fleet")?;
        let mut tol = f.object("tolerance")?;
        let (qoe_tol, loss_pp_tol) = (tol.number("qoe")?, tol.number("loss_pp")?);
        let (reconfig_rel_tol, reconfig_abs_tol) =
            (tol.number("reconfig_rel")?, tol.number("reconfig_abs")?);
        tol.finish()?;
        let mut phases = BTreeMap::new();
        for (name, mut o) in f.children()? {
            let phase = FleetPhasePins {
                qoe: o.number("qoe")?,
                loss_pct: o.number("loss_pct")?,
                reconfigs: o.number("reconfigs")?,
            };
            o.finish()?;
            phases.insert(name.to_string(), phase);
        }

        let mut l = top.object("library")?;
        let library = LibraryPins {
            entries: l.count("entries")?,
            misses_cold: l.count("misses_cold")?,
            hits_warm: l.count("hits_warm")?,
            misses_warm: l.count("misses_warm")?,
        };
        l.finish()?;
        top.finish()?;
        Ok(Pins {
            serve,
            fleet: FleetPins {
                phases,
                qoe_tol,
                loss_pp_tol,
                reconfig_rel_tol,
                reconfig_abs_tol,
            },
            library,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "schema": 1,
        "serve": {"w": {"rates_rps": [1, 2, 3], "exit_share_min": [0, 0, 0], "exit_share_max": [1, 1, 1]}},
        "fleet": {
            "tolerance": {"qoe": 0.01, "loss_pp": 0.5, "reconfig_rel": 0.1, "reconfig_abs": 5},
            "sparse": {"qoe": 0.8, "loss_pct": 1.5, "reconfigs": 0}
        },
        "library": {"entries": 12, "misses_cold": 40, "hits_warm": 12, "misses_warm": 0}
    }"#;

    #[test]
    fn committed_pins_parse() {
        let pins = Pins::load();
        for w in ["serve-easy", "serve-hard-burst"] {
            assert!(pins.serve.contains_key(w), "{w} is pinned");
        }
        for p in crate::metrics::PHASES {
            assert!(pins.fleet.phases.contains_key(p), "{p} is pinned");
        }
    }

    #[test]
    fn strict_parsing_accepts_the_schema() {
        let pins = Pins::parse(GOOD).expect("well-formed");
        assert_eq!(pins.serve["w"].rates_rps, [1.0, 2.0, 3.0]);
        assert_eq!(pins.fleet.phases["sparse"].reconfigs, 0.0);
        assert_eq!(pins.library.entries, 12);
    }

    #[test]
    fn unknown_keys_are_rejected_at_every_level() {
        for (from, to, needle) in [
            (
                "\"schema\": 1,",
                "\"schema\": 1, \"extra\": 0,",
                "pins: unknown key \"extra\"",
            ),
            (
                "\"rates_rps\"",
                "\"rate_rps\": [1,2,3], \"rates_rps\"",
                "pins.serve.w: unknown key \"rate_rps\"",
            ),
            (
                "\"loss_pp\": 0.5,",
                "\"loss_pp\": 0.5, \"los_pp\": 1,",
                "pins.fleet.tolerance: unknown key",
            ),
            (
                "\"reconfigs\": 0",
                "\"reconfigs\": 0, \"events\": 3",
                "pins.fleet.sparse: unknown key \"events\"",
            ),
            (
                "\"entries\": 12,",
                "\"entries\": 12, \"entrys\": 12,",
                "pins.library: unknown key \"entrys\"",
            ),
        ] {
            let bad = GOOD.replace(from, to);
            assert_ne!(bad, GOOD, "replacement applied: {from}");
            let err = Pins::parse(&bad).expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn missing_keys_wrong_types_and_schema_are_rejected() {
        assert!(Pins::parse(&GOOD.replace("\"misses_warm\": 0", "\"misses_warm\": -1")).is_err());
        assert!(Pins::parse(&GOOD.replace(", \"misses_warm\": 0", "")).is_err());
        assert!(Pins::parse(&GOOD.replace("\"schema\": 1", "\"schema\": 2")).is_err());
        assert!(Pins::parse(&GOOD.replace("[1, 2, 3]", "[3, 2, 1]")).is_err());
        assert!(Pins::parse("[]").is_err());
    }
}
