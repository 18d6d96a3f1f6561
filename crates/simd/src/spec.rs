//! Wire form of a sweep grid.
//!
//! A [`SweepSpec`] names an [`Experiment`] in the existing subject ×
//! family × timing × mechanism × variant vocabulary, as plain strings
//! (mechanism, family and timing specs in the shared spec grammar of
//! [`dram::spec`], subjects as workload or mix names). Parsing validates
//! everything up front — an invalid spec is rejected at the protocol
//! boundary with a typed `bad-spec` error, never deep inside the
//! daemon's queue.
//!
//! ```text
//! {"subjects":["mcf","w3"],
//!  "mechanisms":["baseline","chargecache(entries=128)"],
//!  "families":["ddr3","lpddr4x"],
//!  "timings":["ddr3-1600"],
//!  "variants":[{"label":"64","params":{"entries":"64"}}],
//!  "engine":"event-skip",
//!  "params":{"insts_per_core":8000,"warmup_insts":2000,
//!            "max_cycle_factor":300,"seed":42}}
//! ```
//!
//! Every member except `subjects` is optional: mechanisms default to the
//! paper's five, families and timings to the paper device, variants to
//! the single `paper` variant, and params to [`ExpParams::bench`] *as
//! resolved by the daemon* — clients that need deterministic run lengths
//! (the `cc-sim --server` client always does) send `params` explicitly.

use std::str::FromStr;

use chargecache::{registry, MechanismSpec, ParamValue};
use dram::{FamilySpec, TimingSpec};
use sim::api::{Experiment, Variant};
use sim::json::Json;
use sim::{Engine, ExpParams};
use traces::{eight_core_mixes, workload};

/// One labelled variant on the wire: a parameter patch applied to every
/// mechanism whose factory supports the key (exactly like
/// [`Variant::param_labelled`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// The variant label (row/column key in the result table).
    pub label: String,
    /// Parameter patches, in wire order.
    pub params: Vec<(String, ParamValue)>,
}

impl VariantSpec {
    /// Materializes the equivalent [`Variant`].
    pub fn to_variant(&self) -> Variant {
        let params = self.params.clone();
        Variant::new(self.label.clone(), move |cfg| {
            for (key, value) in &params {
                if registry::supports_param(&cfg.mechanism, key) {
                    cfg.mechanism.set(key.clone(), value.clone());
                }
            }
        })
    }
}

/// A fully-validated sweep grid in wire form. See the module docs for
/// the JSON shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Subject names: single-core workloads (`"mcf"`) or eight-core
    /// mixes (`"w3"`).
    pub subjects: Vec<String>,
    /// Mechanism axis (validated, canonicalized specs).
    pub mechanisms: Vec<MechanismSpec>,
    /// Device-family axis; empty means the paper's DDR3 structure.
    pub families: Vec<FamilySpec>,
    /// Timing axis; empty means the paper's default device.
    pub timings: Vec<TimingSpec>,
    /// Variant axis; empty means the single `paper` variant.
    pub variants: Vec<VariantSpec>,
    /// Run-length parameters (resolved at parse time).
    pub params: ExpParams,
    /// Simulation engine override, when requested.
    pub engine: Option<Engine>,
}

/// Parses the optional array member `key` of spec strings, passing each
/// through `check` (which validates and may canonicalize it).
fn spec_array<T: FromStr<Err = String>>(
    j: &Json,
    key: &str,
    check: impl Fn(T) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Some(arr) = j.get(key).and_then(Json::as_arr) else {
        return Ok(Vec::new());
    };
    arr.iter()
        .map(|v| {
            let s = v
                .as_str()
                .ok_or_else(|| format!("{key} must be spec strings, got {v}"))?;
            check(s.parse()?)
        })
        .collect()
}

impl SweepSpec {
    /// Parses and validates a spec from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending member on
    /// any unknown subject, unparsable or invalid mechanism/timing spec,
    /// malformed variant, bad parameter value, or unknown engine name.
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let subjects: Vec<String> = match j.get("subjects").and_then(Json::as_arr) {
            Some(arr) => arr
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("subjects must be strings, got {s}"))
                })
                .collect::<Result<_, _>>()?,
            None => return Err("spec needs a \"subjects\" array".into()),
        };
        if subjects.is_empty() {
            return Err("spec has no subjects".into());
        }
        for s in &subjects {
            if workload(s).is_none() && !eight_core_mixes().iter().any(|m| m.name == *s) {
                return Err(format!(
                    "unknown subject {s:?} (not a workload or mix name)"
                ));
            }
        }

        let mechanisms = spec_array(j, "mechanisms", |m: MechanismSpec| {
            let m = registry::canonicalize(&m);
            registry::validate_spec(&m).map(|()| m)
        })?;
        let families = spec_array(j, "families", |f: FamilySpec| {
            dram::family::resolve(&f)
                .map(|_| f)
                .map_err(|e| e.to_string())
        })?;
        let timings = spec_array(j, "timings", |t: TimingSpec| t.resolve().map(|_| t))?;

        let mut variants = Vec::new();
        if let Some(arr) = j.get("variants").and_then(Json::as_arr) {
            for v in arr {
                let label = v
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("each variant needs a \"label\" string")?
                    .to_string();
                let mut params = Vec::new();
                if let Some(Json::Obj(members)) = v.get("params") {
                    for (key, value) in members {
                        let s = value.as_str().ok_or_else(|| {
                            format!("variant {label:?} param {key:?} must be a string value")
                        })?;
                        let parsed: ParamValue = s
                            .parse()
                            .map_err(|e| format!("variant {label:?} param {key:?}: {e}"))?;
                        params.push((key.clone(), parsed));
                    }
                }
                variants.push(VariantSpec { label, params });
            }
        }

        let params = match j.get("params") {
            Some(p) => ExpParams {
                insts_per_core: uint_member(p, "insts_per_core")?,
                warmup_insts: uint_member(p, "warmup_insts")?,
                max_cycle_factor: uint_member(p, "max_cycle_factor")?,
                seed: uint_member(p, "seed")?,
                // Not on the wire: the executing side decides durability
                // (the daemon applies its own `--checkpoint-interval`).
                checkpoint_interval: 0,
            },
            None => ExpParams::bench(),
        };

        let engine = match j.get("engine").and_then(Json::as_str) {
            None => None,
            Some("event-skip") => Some(Engine::EventSkip),
            Some("per-cycle") => Some(Engine::PerCycle),
            Some(other) => {
                return Err(format!(
                    "unknown engine {other:?} (expected \"event-skip\" or \"per-cycle\")"
                ))
            }
        };

        Ok(SweepSpec {
            subjects,
            mechanisms,
            families,
            timings,
            variants,
            params,
            engine,
        })
    }

    /// Encodes the spec in its JSON wire form (the `from_json` inverse).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "subjects".into(),
                Json::Arr(self.subjects.iter().map(Json::str).collect()),
            ),
            (
                "mechanisms".into(),
                Json::Arr(
                    self.mechanisms
                        .iter()
                        .map(|m| Json::str(m.to_string()))
                        .collect(),
                ),
            ),
            (
                "families".into(),
                Json::Arr(
                    self.families
                        .iter()
                        .map(|f| Json::str(f.to_string()))
                        .collect(),
                ),
            ),
            (
                "timings".into(),
                Json::Arr(
                    self.timings
                        .iter()
                        .map(|t| Json::str(t.to_string()))
                        .collect(),
                ),
            ),
            (
                "variants".into(),
                Json::Arr(
                    self.variants
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("label".into(), Json::str(&v.label)),
                                (
                                    "params".into(),
                                    Json::Obj(
                                        v.params
                                            .iter()
                                            .map(|(k, p)| (k.clone(), Json::str(p.to_string())))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(e) = self.engine {
            let name = match e {
                Engine::EventSkip => "event-skip",
                Engine::PerCycle => "per-cycle",
            };
            members.push(("engine".into(), Json::str(name)));
        }
        members.push((
            "params".into(),
            Json::Obj(vec![
                (
                    "insts_per_core".into(),
                    Json::uint(self.params.insts_per_core),
                ),
                ("warmup_insts".into(), Json::uint(self.params.warmup_insts)),
                (
                    "max_cycle_factor".into(),
                    Json::uint(self.params.max_cycle_factor),
                ),
                ("seed".into(), Json::uint(self.params.seed)),
            ]),
        ));
        Json::Obj(members)
    }

    /// Builds the equivalent [`Experiment`]. The daemon never sets a
    /// cache directory here — its workers pass the shared
    /// [`sim::DiskCache`] to [`sim::api::CellPlan::run`] directly.
    pub fn experiment(&self) -> Result<Experiment, String> {
        let mut exp = Experiment::new().params(self.params);
        for s in &self.subjects {
            if let Some(w) = workload(s) {
                exp = exp.workload(w);
            } else if let Some(m) = eight_core_mixes().iter().find(|m| m.name == *s) {
                exp = exp.mix(m.clone());
            } else {
                return Err(format!("unknown subject {s:?}"));
            }
        }
        exp = exp.mechanisms(&self.mechanisms);
        for f in &self.families {
            exp = exp.family(f.clone());
        }
        for t in &self.timings {
            exp = exp.timing(t.clone());
        }
        for v in &self.variants {
            exp = exp.variant(v.to_variant());
        }
        if let Some(e) = self.engine {
            exp = exp.engine(e);
        }
        Ok(exp)
    }
}

fn uint_member(j: &Json, key: &str) -> Result<u64, String> {
    let x = j
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("params needs a numeric {key:?} member"))?;
    if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0) {
        return Err(format!(
            "params.{key} must be a non-negative integer, got {x}"
        ));
    }
    Ok(x as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_json_and_builds_a_plan() {
        let spec = SweepSpec {
            subjects: vec!["mcf".into(), "w3".into()],
            mechanisms: vec![MechanismSpec::baseline(), MechanismSpec::chargecache()],
            families: vec!["ddr3".parse().unwrap()],
            timings: vec!["ddr3-1866".parse().unwrap()],
            variants: vec![VariantSpec {
                label: "64".into(),
                params: vec![("entries".into(), ParamValue::Int(64))],
            }],
            params: ExpParams::tiny(),
            engine: Some(Engine::EventSkip),
        };
        let j = spec.to_json();
        let back = SweepSpec::from_json(&j).expect("roundtrip parse");
        assert_eq!(back, spec);
        let plan = back.experiment().unwrap().plan().unwrap();
        // 2 subjects × 1 family × 1 timing × 2 mechanisms × 1 variant.
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.variants, vec!["64".to_string()]);
    }

    #[test]
    fn family_axis_rides_the_wire_and_expands_the_grid() {
        let spec = SweepSpec {
            subjects: vec!["mcf".into()],
            mechanisms: vec![MechanismSpec::baseline(), MechanismSpec::chargecache()],
            families: vec!["ddr3".parse().unwrap(), "lpddr4x".parse().unwrap()],
            timings: Vec::new(),
            variants: Vec::new(),
            params: ExpParams::tiny(),
            engine: None,
        };
        let back = SweepSpec::from_json(&spec.to_json()).expect("roundtrip parse");
        assert_eq!(back, spec);
        let plan = back.experiment().unwrap().plan().unwrap();
        // 1 subject × 2 families × 1 timing × 2 mechanisms × 1 variant.
        assert_eq!(plan.cells.len(), 4);
        // Each family's cells carry its own effective timing spec.
        assert_eq!(plan.cells[0].timing.to_string(), "ddr3-1600");
        assert_eq!(plan.cells[2].timing.to_string(), "lpddr4x-3200");
    }

    #[test]
    fn rejects_unknown_subjects_mechanisms_and_engines() {
        let parse = |s: &str| SweepSpec::from_json(&sim::json::parse(s).unwrap());
        assert!(parse("{\"subjects\":[\"nope\"]}")
            .unwrap_err()
            .contains("unknown subject"));
        assert!(parse("{\"subjects\":[]}")
            .unwrap_err()
            .contains("no subjects"));
        assert!(parse("{\"subjects\":[\"mcf\"],\"mechanisms\":[\"warp-drive\"]}").is_err());
        assert!(parse("{\"subjects\":[\"mcf\"],\"timings\":[\"ddr9-9999\"]}").is_err());
        assert!(parse("{\"subjects\":[\"mcf\"],\"families\":[\"ddr9\"]}").is_err());
        assert!(parse("{\"subjects\":[\"mcf\"],\"families\":[\"ddr4(tccd_l=1)\"]}").is_err());
        assert!(parse("{\"subjects\":[\"mcf\"],\"engine\":\"quantum\"}")
            .unwrap_err()
            .contains("unknown engine"));
        assert!(parse("{\"subjects\":[\"mcf\"],\"params\":{\"insts_per_core\":-1}}").is_err());
    }

    #[test]
    fn wire_variant_matches_the_native_entries_variant() {
        // The wire variant must patch configurations exactly like
        // Variant::entries, or served sweeps would diverge from local
        // ones on the capacity axis.
        let wire = VariantSpec {
            label: "64".into(),
            params: vec![("entries".into(), ParamValue::Int(64))],
        }
        .to_variant();
        let native = Variant::entries(64);
        let exp_wire = Experiment::new()
            .workload(workload("mcf").unwrap())
            .mechanism(MechanismSpec::chargecache())
            .params(ExpParams::tiny())
            .variant(wire);
        let exp_native = Experiment::new()
            .workload(workload("mcf").unwrap())
            .mechanism(MechanismSpec::chargecache())
            .params(ExpParams::tiny())
            .variant(native);
        let key_of = |e: &Experiment| e.plan().unwrap().cells[0].content_key();
        assert_eq!(key_of(&exp_wire), key_of(&exp_native));
    }
}
