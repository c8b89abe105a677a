//! Computational domains (§4.2).
//!
//! Domains are the type-system mechanism by which a BCL design is
//! partitioned: every rule belongs to exactly one domain, every
//! non-synchronizer primitive is used from exactly one domain, and the
//! only primitives whose methods span two domains are synchronizers.
//! Domain membership is *inferred*: sources/sinks pin their domain, each
//! synchronizer method pins the domain of any rule that calls it, and
//! everything else propagates through shared state. An inconsistency — a
//! rule that would have to live in two domains at once — is a type error,
//! which is exactly how the paper guarantees the absence of inadvertent
//! inter-domain communication.

use crate::analysis::RwSet;
use crate::ast::PrimMethod;
use crate::design::Design;
use crate::error::DomainError;
use crate::prim::PrimSpec;

/// The conventional hardware domain name.
pub const HW: &str = "HW";
/// The conventional software domain name.
pub const SW: &str = "SW";
/// The conventional domain name of a second accelerator (the first
/// uses [`HW`]).
pub const HW2: &str = "HW2";

/// The result of domain inference for a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    /// Domain of each rule (indexed like `design.rules`).
    pub rule_domain: Vec<String>,
    /// Domain of each primitive; `None` for synchronizers (they belong to
    /// both their `from` and `to` domains).
    pub prim_domain: Vec<Option<String>>,
}

impl DomainMap {
    /// The set of distinct domains appearing in the map (synchronizer
    /// endpoint domains included via rules).
    pub fn domains(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .rule_domain
            .iter()
            .cloned()
            .chain(self.prim_domain.iter().flatten().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Union-find with optional domain labels at the roots.
struct Uf {
    parent: Vec<usize>,
    label: Vec<Option<String>>,
}

impl Uf {
    fn new(n: usize) -> Uf {
        Uf {
            parent: (0..n).collect(),
            label: vec![None; n],
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let r = self.find(self.parent[i]);
            self.parent[i] = r;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize, what: &dyn Fn() -> String) -> Result<(), DomainError> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(());
        }
        let merged = match (self.label[ra].take(), self.label[rb].take()) {
            (Some(x), Some(y)) if x != y => {
                return Err(DomainError::new(format!(
                    "{} would belong to both domain `{x}` and domain `{y}`",
                    what()
                )));
            }
            (Some(x), _) | (_, Some(x)) => Some(x),
            (None, None) => None,
        };
        self.parent[ra] = rb;
        self.label[rb] = merged;
        Ok(())
    }

    fn pin(&mut self, i: usize, d: &str, what: &dyn Fn() -> String) -> Result<(), DomainError> {
        let r = self.find(i);
        match &self.label[r] {
            Some(x) if x != d => Err(DomainError::new(format!(
                "{} would belong to both domain `{x}` and domain `{d}`",
                what()
            ))),
            _ => {
                self.label[r] = Some(d.to_string());
                Ok(())
            }
        }
    }
}

/// Which endpoint domain of a synchronizer a method call binds to.
fn sync_side(spec: &PrimSpec, m: PrimMethod) -> Option<&str> {
    if let PrimSpec::Sync { from, to, .. } = spec {
        match m {
            PrimMethod::Enq | PrimMethod::NotFull => Some(from),
            PrimMethod::Deq | PrimMethod::First | PrimMethod::NotEmpty => Some(to),
            _ => None,
        }
    } else {
        None
    }
}

/// Infers the domain of every rule and primitive.
///
/// Rules and primitives not reachable from any pin are placed in
/// `default_domain` (a design with no synchronizers and no pinned ports is
/// a single-domain — typically all-software — design).
///
/// # Errors
///
/// Returns a [`DomainError`] naming the offending rule or primitive when
/// the one-domain-per-rule invariant cannot be satisfied.
pub fn infer_domains(design: &Design, default_domain: &str) -> Result<DomainMap, DomainError> {
    let nr = design.rules.len();
    let np = design.prims.len();
    // Node layout: 0..nr are rules, nr..nr+np are primitives.
    let mut uf = Uf::new(nr + np);

    for (j, p) in design.prims.iter().enumerate() {
        if let Some(d) = p.spec.pinned_domain() {
            let path = p.path.clone();
            uf.pin(nr + j, d, &move || format!("primitive `{path}`"))?;
        }
    }

    for (i, r) in design.rules.iter().enumerate() {
        let rw = RwSet::of_action(&r.body);
        for (pid, m) in rw.reads.iter().chain(rw.writes.iter()) {
            let Some(prim) = design.prims.get(pid.0) else {
                return Err(DomainError::new(format!(
                    "rule `{}` references unknown primitive #{} (design has {})",
                    r.name, pid.0, np
                )));
            };
            let spec = &prim.spec;
            let rule_name = r.name.clone();
            if spec.is_sync() {
                if let Some(d) = sync_side(spec, *m) {
                    let d = d.to_string();
                    let rn = rule_name.clone();
                    uf.pin(i, &d, &move || format!("rule `{rn}`"))?;
                }
            } else {
                let prim_path = prim.path.clone();
                uf.union(i, nr + pid.0, &move || {
                    format!("rule `{rule_name}` (via primitive `{prim_path}`)")
                })?;
            }
        }
    }

    let mut rule_domain = Vec::with_capacity(nr);
    for i in 0..nr {
        let r = uf.find(i);
        rule_domain.push(
            uf.label[r]
                .clone()
                .unwrap_or_else(|| default_domain.to_string()),
        );
    }
    let mut prim_domain = Vec::with_capacity(np);
    for j in 0..np {
        if design.prims[j].spec.is_sync() {
            prim_domain.push(None);
        } else {
            let r = uf.find(nr + j);
            prim_domain.push(Some(
                uf.label[r]
                    .clone()
                    .unwrap_or_else(|| default_domain.to_string()),
            ));
        }
    }
    Ok(DomainMap {
        rule_domain,
        prim_domain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Action, Expr, Path, PrimId, RuleDef, Target};
    use crate::design::PrimDef;
    use crate::types::Type;
    use crate::value::Value;

    fn enq(id: usize, e: Expr) -> Action {
        Action::Call(Target::Prim(PrimId(id), PrimMethod::Enq), vec![e])
    }
    fn deq(id: usize) -> Action {
        Action::Call(Target::Prim(PrimId(id), PrimMethod::Deq), vec![])
    }
    fn first(id: usize) -> Expr {
        Expr::Call(Target::Prim(PrimId(id), PrimMethod::First), vec![])
    }

    /// src(SW) -> [feed] -> sync(SW->HW) -> [compute] -> reg, sync2(HW->SW)
    /// -> [drain] -> sink(SW)
    fn partitioned_design() -> Design {
        Design {
            name: "p".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("src"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(32),
                        domain: SW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("inSync"),
                    spec: PrimSpec::Sync {
                        depth: 2,
                        ty: Type::Int(32),
                        from: SW.into(),
                        to: HW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("acc"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
                PrimDef {
                    path: Path::new("outSync"),
                    spec: PrimSpec::Sync {
                        depth: 2,
                        ty: Type::Int(32),
                        from: HW.into(),
                        to: SW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("snk"),
                    spec: PrimSpec::Sink {
                        ty: Type::Int(32),
                        domain: SW.into(),
                    },
                },
            ],
            rules: vec![
                RuleDef {
                    name: "feed".into(),
                    body: Action::Par(Box::new(enq(1, first(0))), Box::new(deq(0))),
                },
                RuleDef {
                    name: "compute".into(),
                    body: Action::Par(
                        Box::new(Action::Write(
                            Target::Prim(PrimId(2), PrimMethod::RegWrite),
                            Box::new(first(1)),
                        )),
                        Box::new(Action::Par(Box::new(enq(3, first(1))), Box::new(deq(1)))),
                    ),
                },
                RuleDef {
                    name: "drain".into(),
                    body: Action::Par(Box::new(enq(4, first(3))), Box::new(deq(3))),
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn domains_inferred_through_syncs() {
        let d = partitioned_design();
        let m = infer_domains(&d, SW).unwrap();
        assert_eq!(m.rule_domain, vec!["SW", "HW", "SW"]);
        assert_eq!(
            m.prim_domain,
            vec![
                Some(SW.to_string()),
                None,
                Some(HW.to_string()),
                None,
                Some(SW.to_string())
            ]
        );
        assert_eq!(m.domains(), vec!["HW".to_string(), "SW".to_string()]);
    }

    #[test]
    fn unpinned_design_defaults() {
        let d = Design {
            name: "lone".into(),
            prims: vec![PrimDef {
                path: Path::new("r"),
                spec: PrimSpec::Reg {
                    init: Value::int(8, 0),
                },
            }],
            rules: vec![RuleDef {
                name: "tick".into(),
                body: Action::Write(
                    Target::Prim(PrimId(0), PrimMethod::RegWrite),
                    Box::new(Expr::int(8, 1)),
                ),
            }],
            ..Default::default()
        };
        let m = infer_domains(&d, SW).unwrap();
        assert_eq!(m.rule_domain, vec!["SW"]);
        assert_eq!(m.prim_domain, vec![Some("SW".to_string())]);
    }

    #[test]
    fn rule_spanning_two_domains_is_error() {
        // A rule that enqs a SW->HW sync (SW side) but also reads a
        // HW-pinned source: inconsistent.
        let d = Design {
            name: "bad".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("hwsrc"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(32),
                        domain: HW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("s"),
                    spec: PrimSpec::Sync {
                        depth: 1,
                        ty: Type::Int(32),
                        from: SW.into(),
                        to: HW.into(),
                    },
                },
            ],
            rules: vec![RuleDef {
                name: "confused".into(),
                body: Action::Par(Box::new(enq(1, first(0))), Box::new(deq(0))),
            }],
            ..Default::default()
        };
        let e = infer_domains(&d, SW).unwrap_err();
        assert!(
            e.message().contains("confused") || e.message().contains("hwsrc"),
            "{e}"
        );
    }

    #[test]
    fn shared_register_across_domains_is_error() {
        // Two rules pinned to different domains both write one register.
        let d = Design {
            name: "bad2".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("swsrc"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(32),
                        domain: SW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("hwsrc"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(32),
                        domain: HW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("shared"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
            ],
            rules: vec![
                RuleDef {
                    name: "swRule".into(),
                    body: Action::Par(
                        Box::new(Action::Write(
                            Target::Prim(PrimId(2), PrimMethod::RegWrite),
                            Box::new(first(0)),
                        )),
                        Box::new(deq(0)),
                    ),
                },
                RuleDef {
                    name: "hwRule".into(),
                    body: Action::Par(
                        Box::new(Action::Write(
                            Target::Prim(PrimId(2), PrimMethod::RegWrite),
                            Box::new(first(1)),
                        )),
                        Box::new(deq(1)),
                    ),
                },
            ],
            ..Default::default()
        };
        assert!(infer_domains(&d, SW).is_err());
    }
}
