//! Partition generation (§4.3–4.4, Figure 6).
//!
//! Once domains are inferred, the design is split: each domain gets its own
//! [`Design`] containing its primitives and rules, and every synchronizer
//! is split into a transmit-side FIFO (in the producer's partition) and a
//! receive-side FIFO (in the consumer's partition). The connection between
//! the two halves — arbitration, marshaling, credits over a physical
//! channel — is the transactor, generated by `bcl-platform` from the
//! [`ChannelSpec`]s this module emits.
//!
//! The overall semantics of the unpartitioned program are preserved
//! because synchronizer interfaces are latency-insensitive: the partitions
//! plus channels form an LIBDN (latency-insensitive bounded dataflow
//! network \[39\]), and adding buffering/latency on LIBDN edges cannot
//! change the stream of values, only their timing.

use crate::ast::{Action, Expr, Path, PrimId, PrimMethod, RuleDef, Target};
use crate::design::{Design, PrimDef};
use crate::domain::{infer_domains, DomainMap};
use crate::error::DomainError;
use crate::prim::PrimSpec;
use crate::types::Type;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One synchronizer turned into a cross-partition channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSpec {
    /// The original synchronizer's path (channel name).
    pub name: String,
    /// Element type (determines marshaling: `ty.words()` words/message).
    pub ty: Type,
    /// Buffering depth (bounds credits).
    pub depth: usize,
    /// Producer partition.
    pub from_domain: String,
    /// Consumer partition.
    pub to_domain: String,
    /// Path of the transmit FIFO inside the producer partition.
    pub tx_path: String,
    /// Path of the receive FIFO inside the consumer partition.
    pub rx_path: String,
}

/// A design split into per-domain partitions plus channel specs.
///
/// The partition designs are shared: cloning a `Partitioned` copies the
/// channel specs and the domain map but not one design, so a runtime can
/// keep the partitioning it was built from without duplicating it.
#[derive(Debug, Clone)]
pub struct Partitioned {
    /// One design per domain, keyed by domain name.
    pub partitions: BTreeMap<String, Arc<Design>>,
    /// One channel per synchronizer.
    pub channels: Vec<ChannelSpec>,
    /// The inference result the split was based on.
    pub map: DomainMap,
}

impl Partitioned {
    /// Borrows the partition for a domain.
    ///
    /// # Errors
    ///
    /// Names the missing domain and lists the domains that exist, so a
    /// typo in a cosim topology surfaces here instead of as a silent
    /// `None` deep in platform setup.
    pub fn partition(&self, domain: &str) -> Result<&Design, DomainError> {
        self.shared(domain).map(|d| &**d)
    }

    /// The partition for a domain as a shared handle, for a consumer
    /// that keeps it without copying it.
    ///
    /// # Errors
    ///
    /// As [`Partitioned::partition`].
    pub fn shared(&self, domain: &str) -> Result<&Arc<Design>, DomainError> {
        self.partitions.get(domain).ok_or_else(|| {
            let avail: Vec<&str> = self.partitions.keys().map(String::as_str).collect();
            DomainError::new(format!(
                "no partition for domain `{domain}` (available: {})",
                avail.join(", ")
            ))
        })
    }

    /// The non-`sw` domains, in deterministic (sorted) order.
    pub fn hw_domains(&self, sw: &str) -> Vec<String> {
        self.partitions
            .keys()
            .filter(|d| *d != sw)
            .cloned()
            .collect()
    }
}

/// Splits a design into per-domain partitions (§4.3).
///
/// # Errors
///
/// Propagates domain-inference errors (a rule spanning domains, shared
/// state across domains).
pub fn partition(design: &Design, default_domain: &str) -> Result<Partitioned, DomainError> {
    let map = infer_domains(design, default_domain)?;

    // Collect the full set of domains (rule domains + sync endpoints).
    let mut domains: Vec<String> = map.rule_domain.clone();
    for p in &design.prims {
        if let PrimSpec::Sync { from, to, .. } = &p.spec {
            domains.push(from.clone());
            domains.push(to.clone());
        }
    }
    for d in map.prim_domain.iter().flatten() {
        domains.push(d.clone());
    }
    domains.sort();
    domains.dedup();

    let mut partitions: BTreeMap<String, Design> = domains
        .iter()
        .map(|d| {
            (
                d.clone(),
                Design {
                    name: format!("{}.{}", design.name, d),
                    ..Default::default()
                },
            )
        })
        .collect();

    // Primitive placement. For each original prim we record how calls to it
    // are rewritten: either a straight move into one partition, or a
    // tx/rx pair for synchronizers.
    enum Placement {
        Moved {
            domain: String,
            new_id: PrimId,
        },
        Split {
            tx_domain: String,
            tx_id: PrimId,
            rx_domain: String,
            rx_id: PrimId,
        },
    }
    let mut placement: Vec<Placement> = Vec::with_capacity(design.prims.len());
    let mut channels = Vec::new();

    for (j, p) in design.prims.iter().enumerate() {
        match &p.spec {
            PrimSpec::Sync {
                depth,
                ty,
                from,
                to,
            } => {
                let tx_path = p.path.join("tx");
                let rx_path = p.path.join("rx");
                // Unreachable from any input: `domains` was seeded with
                // every sync endpoint a few lines above, so both lookups
                // must succeed.
                let txd = partitions.get_mut(from).expect("domain exists");
                let tx_id = PrimId(txd.prims.len());
                txd.prims.push(PrimDef {
                    path: tx_path.clone(),
                    spec: PrimSpec::Fifo {
                        depth: *depth,
                        ty: ty.clone(),
                    },
                });
                let rxd = partitions.get_mut(to).expect("domain exists");
                let rx_id = PrimId(rxd.prims.len());
                rxd.prims.push(PrimDef {
                    path: rx_path.clone(),
                    spec: PrimSpec::Fifo {
                        depth: *depth,
                        ty: ty.clone(),
                    },
                });
                channels.push(ChannelSpec {
                    name: p.path.0.clone(),
                    ty: ty.clone(),
                    depth: *depth,
                    from_domain: from.clone(),
                    to_domain: to.clone(),
                    tx_path: tx_path.0,
                    rx_path: rx_path.0,
                });
                placement.push(Placement::Split {
                    tx_domain: from.clone(),
                    tx_id,
                    rx_domain: to.clone(),
                    rx_id,
                });
            }
            _ => {
                // Unreachable from any input: `infer_domains` assigns
                // `Some(domain)` to every non-sync primitive (defaulting
                // unreached ones), and every such domain was collected
                // into `domains` above before the partitions map was
                // built.
                let dom = map.prim_domain[j]
                    .clone()
                    .expect("non-sync prims have a domain");
                let pd = partitions.get_mut(&dom).expect("domain exists");
                let new_id = PrimId(pd.prims.len());
                pd.prims.push(p.clone());
                placement.push(Placement::Moved {
                    domain: dom,
                    new_id,
                });
            }
        }
    }

    // Rewrites a target for a rule living in `rule_domain`.
    let rewrite_target = |t: &Target, rule_domain: &str| -> Result<Target, DomainError> {
        match t {
            Target::Prim(id, m) => match placement.get(id.0).ok_or_else(|| {
                DomainError::new(format!(
                    "rule in `{rule_domain}` references unknown primitive #{}",
                    id.0
                ))
            })? {
                Placement::Moved { domain, new_id } => {
                    if domain != rule_domain {
                        return Err(DomainError::new(format!(
                            "internal error: rule in `{rule_domain}` touches primitive in `{domain}`"
                        )));
                    }
                    Ok(Target::Prim(*new_id, *m))
                }
                Placement::Split {
                    tx_domain,
                    tx_id,
                    rx_domain,
                    rx_id,
                } => {
                    let (want, id2) = match m {
                        PrimMethod::Enq | PrimMethod::NotFull => (tx_domain, tx_id),
                        PrimMethod::Deq | PrimMethod::First | PrimMethod::NotEmpty => {
                            (rx_domain, rx_id)
                        }
                        other => {
                            return Err(DomainError::new(format!(
                                "method {} not supported on synchronizers",
                                other.name()
                            )));
                        }
                    };
                    if want != rule_domain {
                        return Err(DomainError::new(format!(
                            "internal error: sync side `{want}` used from `{rule_domain}`"
                        )));
                    }
                    Ok(Target::Prim(*id2, *m))
                }
            },
            Target::Named(p, m) => Err(DomainError::new(format!(
                "unelaborated call `{p}.{m}` cannot be partitioned"
            ))),
        }
    };

    for (i, r) in design.rules.iter().enumerate() {
        let dom = &map.rule_domain[i];
        let body = rewrite_action(&r.body, &|t| rewrite_target(t, dom))?;
        partitions
            .get_mut(dom)
            // Unreachable from any input: `domains` includes every entry
            // of `map.rule_domain`, so each rule's partition was created.
            .expect("domain exists")
            .rules
            .push(RuleDef {
                name: r.name.clone(),
                body,
            });
    }

    // Drop now-empty partitions (a domain that only appeared as an unused
    // sync endpoint with no rules or prims beyond the half-FIFO is kept —
    // the transactor still needs it).
    Ok(Partitioned {
        partitions: partitions
            .into_iter()
            .map(|(d, part)| (d, Arc::new(part)))
            .collect(),
        channels,
        map,
    })
}

fn rewrite_action(
    a: &Action,
    f: &dyn Fn(&Target) -> Result<Target, DomainError>,
) -> Result<Action, DomainError> {
    Ok(match a {
        Action::NoAction => Action::NoAction,
        Action::Write(t, e) => Action::Write(f(t)?, Box::new(rewrite_expr(e, f)?)),
        Action::If(c, x, y) => Action::If(
            Box::new(rewrite_expr(c, f)?),
            Box::new(rewrite_action(x, f)?),
            Box::new(rewrite_action(y, f)?),
        ),
        Action::Par(x, y) => Action::Par(
            Box::new(rewrite_action(x, f)?),
            Box::new(rewrite_action(y, f)?),
        ),
        Action::Seq(x, y) => Action::Seq(
            Box::new(rewrite_action(x, f)?),
            Box::new(rewrite_action(y, f)?),
        ),
        Action::When(g, x) => Action::When(
            Box::new(rewrite_expr(g, f)?),
            Box::new(rewrite_action(x, f)?),
        ),
        Action::Let(n, e, x) => Action::Let(
            n.clone(),
            Box::new(rewrite_expr(e, f)?),
            Box::new(rewrite_action(x, f)?),
        ),
        Action::Loop(c, x) => Action::Loop(
            Box::new(rewrite_expr(c, f)?),
            Box::new(rewrite_action(x, f)?),
        ),
        Action::LocalGuard(x) => Action::LocalGuard(Box::new(rewrite_action(x, f)?)),
        Action::Call(t, args) => Action::Call(
            f(t)?,
            args.iter()
                .map(|e| rewrite_expr(e, f))
                .collect::<Result<_, _>>()?,
        ),
    })
}

fn rewrite_expr(
    e: &Expr,
    f: &dyn Fn(&Target) -> Result<Target, DomainError>,
) -> Result<Expr, DomainError> {
    Ok(match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(rewrite_expr(a, f)?)),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(rewrite_expr(a, f)?),
            Box::new(rewrite_expr(b, f)?),
        ),
        Expr::Cond(a, b, c) => Expr::Cond(
            Box::new(rewrite_expr(a, f)?),
            Box::new(rewrite_expr(b, f)?),
            Box::new(rewrite_expr(c, f)?),
        ),
        Expr::When(a, b) => {
            Expr::When(Box::new(rewrite_expr(a, f)?), Box::new(rewrite_expr(b, f)?))
        }
        Expr::Let(n, a, b) => Expr::Let(
            n.clone(),
            Box::new(rewrite_expr(a, f)?),
            Box::new(rewrite_expr(b, f)?),
        ),
        Expr::Call(t, args) => Expr::Call(
            f(t)?,
            args.iter()
                .map(|x| rewrite_expr(x, f))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Index(a, b) => {
            Expr::Index(Box::new(rewrite_expr(a, f)?), Box::new(rewrite_expr(b, f)?))
        }
        Expr::Field(a, n) => Expr::Field(Box::new(rewrite_expr(a, f)?), n.clone()),
        Expr::MkVec(es) => Expr::MkVec(
            es.iter()
                .map(|x| rewrite_expr(x, f))
                .collect::<Result<_, _>>()?,
        ),
        Expr::MkStruct(fs) => Expr::MkStruct(
            fs.iter()
                .map(|(n, x)| Ok((n.clone(), rewrite_expr(x, f)?)))
                .collect::<Result<Vec<_>, DomainError>>()?,
        ),
        Expr::UpdateIndex(a, b, c) => Expr::UpdateIndex(
            Box::new(rewrite_expr(a, f)?),
            Box::new(rewrite_expr(b, f)?),
            Box::new(rewrite_expr(c, f)?),
        ),
        Expr::UpdateField(a, n, c) => Expr::UpdateField(
            Box::new(rewrite_expr(a, f)?),
            n.clone(),
            Box::new(rewrite_expr(c, f)?),
        ),
    })
}

/// Re-fuses a partitioned design into one (software-runnable) design.
///
/// This is the inverse of [`partition`] up to renaming: each channel's
/// tx/rx FIFO halves collapse back into a single FIFO named after the
/// original synchronizer, and every partition's primitives and rules are
/// spliced in. It folds [`fuse_domains`] over every domain but the
/// first, so it is the same fusion a failover performs. Because
/// synchronizer edges are latency-insensitive, the fused design produces
/// the same value streams as the partitioned one.
///
/// # Errors
///
/// Reports rules that reference primitives outside their own partition
/// (cannot happen for the output of [`partition`]).
pub fn fuse_partitioned(p: &Partitioned) -> Result<Design, DomainError> {
    let mut domains = p.partitions.keys();
    let Some(into) = domains.next() else {
        return Ok(Design::default());
    };
    let mut fused = None;
    for d in domains {
        fused = Some(fuse_domains(fused.as_ref().unwrap_or(p), d, into)?.parts);
    }
    let mut fused = fused.unwrap_or_else(|| p.clone());
    Ok(Arc::unwrap_or_clone(
        fused
            .partitions
            .remove(into)
            .expect("fusion keeps the `into` partition"),
    ))
}

/// The result of fusing one domain into another (see [`fuse_domains`]).
///
/// Channels that ran *between* the two merged domains collapse into
/// internal FIFOs of the merged partition, named after the channel;
/// channels between a merged domain and any third domain survive with
/// their endpoint paths unchanged. Every other primitive keeps its path,
/// so a runtime migrates live state into the merged partition by path.
#[derive(Debug, Clone)]
pub struct DomainFusion {
    /// The partitioning after the merge: `absorb` is gone, `into` holds
    /// the merged design, every other partition is the input's own
    /// (shared, not copied).
    pub parts: Partitioned,
    /// Per *original* channel index: the index of the surviving channel
    /// in `parts.channels`, else `None` if internalized.
    pub channel_map: Vec<Option<usize>>,
}

/// Fuses the `absorb` domain into the `into` domain, leaving every other
/// partition untouched (§4.4 generalized to domain subsets).
///
/// This is the partial inverse of [`partition`]: it collapses exactly
/// two domains ([`fuse_partitioned`] folds it over all of them). It is
/// what lets a single dying hardware partition fail over to software
/// while the surviving partitions keep executing in hardware — the dead
/// domain's rules and state move into the software partition, and only
/// the channels that connected the two merged domains disappear.
///
/// Because every channel edge is latency-insensitive, the merged network
/// produces the same value streams as the original partitioning.
///
/// # Errors
///
/// Rejects unknown domains, `absorb == into`, and (defensively) rules
/// that reference primitives outside their own partition.
pub fn fuse_domains(
    p: &Partitioned,
    absorb: &str,
    into: &str,
) -> Result<DomainFusion, DomainError> {
    if absorb == into {
        return Err(DomainError::new(format!(
            "cannot fuse domain `{absorb}` into itself"
        )));
    }
    let absorb_part = p.partition(absorb)?;
    let into_part = p.partition(into)?;

    let mut merged = Design {
        name: into_part.name.clone(),
        ..Default::default()
    };

    // Channels between the two merged domains become internal FIFOs of
    // the merged design, named after the original synchronizer. The
    // others survive; their endpoints in `absorb` are re-homed to `into`,
    // and their paths are unchanged because `place` below preserves them.
    let mut endpoint: HashMap<(&str, &str), PrimId> = HashMap::new();
    let mut channels = Vec::new();
    let mut channel_map: Vec<Option<usize>> = Vec::with_capacity(p.channels.len());
    for c in &p.channels {
        let between = (c.from_domain == absorb && c.to_domain == into)
            || (c.from_domain == into && c.to_domain == absorb);
        if !between {
            let mut c = c.clone();
            if c.from_domain == absorb {
                c.from_domain = into.to_string();
            }
            if c.to_domain == absorb {
                c.to_domain = into.to_string();
            }
            channel_map.push(Some(channels.len()));
            channels.push(c);
            continue;
        }
        let id = PrimId(merged.prims.len());
        merged.prims.push(PrimDef {
            path: Path::new(&c.name),
            spec: PrimSpec::Fifo {
                depth: c.depth,
                ty: c.ty.clone(),
            },
        });
        channel_map.push(None);
        endpoint.insert((c.from_domain.as_str(), c.tx_path.as_str()), id);
        endpoint.insert((c.to_domain.as_str(), c.rx_path.as_str()), id);
    }

    // Move both partitions' primitives, mapping internalized-channel
    // endpoints to the merged FIFO.
    let mut place = |dom: &str, part: &Design| -> Vec<PrimId> {
        part.prims
            .iter()
            .map(|prim| {
                if let Some(&id) = endpoint.get(&(dom, prim.path.0.as_str())) {
                    id
                } else {
                    let id = PrimId(merged.prims.len());
                    merged.prims.push(prim.clone());
                    id
                }
            })
            .collect()
    };
    let into_map = place(into, into_part);
    let absorb_map = place(absorb, absorb_part);

    // Splice both partitions' rules in, remapping targets.
    for (dom, part, ids) in [
        (into, into_part, &into_map),
        (absorb, absorb_part, &absorb_map),
    ] {
        for r in &part.rules {
            let body = rewrite_action(&r.body, &|t| match t {
                Target::Prim(id, m) => {
                    ids.get(id.0)
                        .map(|nid| Target::Prim(*nid, *m))
                        .ok_or_else(|| {
                            DomainError::new(format!(
                                "rule `{}` in `{dom}` references out-of-partition primitive {}",
                                r.name, id.0
                            ))
                        })
                }
                Target::Named(p, m) => Err(DomainError::new(format!(
                    "unelaborated call `{p}.{m}` cannot be fused"
                ))),
            })?;
            merged.rules.push(RuleDef {
                name: r.name.clone(),
                body,
            });
        }
    }

    let mut partitions: BTreeMap<String, Arc<Design>> = p
        .partitions
        .iter()
        .filter(|(d, _)| d.as_str() != absorb && d.as_str() != into)
        .map(|(d, part)| (d.clone(), Arc::clone(part)))
        .collect();
    partitions.insert(into.to_string(), Arc::new(merged));

    Ok(DomainFusion {
        parts: Partitioned {
            partitions,
            channels,
            // Note: the DomainMap still describes the *original* design;
            // it is kept for reference only.
            map: p.map.clone(),
        },
        channel_map,
    })
}

/// The result of splitting a previously absorbed domain back out of a
/// fused partitioning (see [`split_domain`]).
///
/// This is the inverse of [`fuse_domains`]: channels that had been
/// internalized as plain FIFOs of the merged partition reappear as
/// cross-partition channels (they must be *rehydrated* — their live
/// queue contents split across the new tx/rx halves), while channels
/// that already crossed a partition boundary survive with at most their
/// endpoint domains re-homed.
#[derive(Debug, Clone)]
pub struct DomainFission {
    /// The partitioning after the split: `revive` is a partition again,
    /// `into` holds whatever is still absorbed, every other partition is
    /// untouched.
    pub parts: Partitioned,
    /// Per channel index in the *fused* partitioning: the index of the
    /// same channel (matched by synchronizer name, which is unique) in
    /// `parts.channels`. Splitting never internalizes a channel, so
    /// every fused channel survives.
    pub channel_map: Vec<usize>,
    /// Indices in `parts.channels` of channels that were internal FIFOs
    /// of the fused design (their path there is the channel name). Each
    /// touches the revived domain; its queued values must be split
    /// across the new tx/rx halves by whoever migrates live state.
    pub rehydrated: Vec<usize>,
}

/// Splits the `revive` domain back out of a fused partitioning — the
/// inverse of [`fuse_domains`], used for failback to hardware.
///
/// `original` is the partitioning as first produced by [`partition`];
/// `fused` is the current partitioning after every domain in `absorbed`
/// (in order) was folded into `into` by [`fuse_domains`]; `revive` is
/// the member of `absorbed` to extract. The new partitioning is rebuilt
/// by re-folding the *other* absorbed domains into `into`, so its
/// designs are exactly what the runtime would have produced had `revive`
/// never been absorbed — which is what lets live state migrate by
/// primitive path.
///
/// # Errors
///
/// Rejects a `revive` that is not in `absorbed` or that still has its
/// own partition in `fused`, unknown domains, and (defensively) a fused
/// channel with no counterpart in the rebuilt partitioning.
pub fn split_domain(
    original: &Partitioned,
    fused: &Partitioned,
    absorbed: &[String],
    revive: &str,
    into: &str,
) -> Result<DomainFission, DomainError> {
    if !absorbed.iter().any(|d| d == revive) {
        return Err(DomainError::new(format!(
            "domain `{revive}` is not absorbed (absorbed: {})",
            absorbed.join(", ")
        )));
    }
    if fused.partitions.contains_key(revive) {
        return Err(DomainError::new(format!(
            "domain `{revive}` still has its own partition; nothing to split out"
        )));
    }
    original.partition(revive)?;
    original.partition(into)?;

    // Re-fold every still-absorbed domain into `into`, in absorption
    // order, starting from the original partitioning.
    let mut parts = original.clone();
    for d in absorbed.iter().filter(|d| d.as_str() != revive) {
        parts = fuse_domains(&parts, d, into)?.parts;
    }

    // Match the fused partitioning's surviving channels by synchronizer
    // name (names are unique paths in the original design). A channel
    // external to the fused design is external to the split one too, so
    // every fused channel must match.
    let index: HashMap<&str, usize> = parts
        .channels
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.as_str(), i))
        .collect();
    let mut matched = vec![false; parts.channels.len()];
    let mut channel_map = Vec::with_capacity(fused.channels.len());
    for c in &fused.channels {
        let i = *index.get(c.name.as_str()).ok_or_else(|| {
            DomainError::new(format!(
                "channel `{}` of the fused partitioning has no counterpart after \
                 splitting `{revive}` out",
                c.name
            ))
        })?;
        matched[i] = true;
        channel_map.push(i);
    }

    // The remainder were internalized FIFOs of the fused design; each
    // must touch the revived domain.
    let mut rehydrated = Vec::new();
    for (i, c) in parts.channels.iter().enumerate() {
        if matched[i] {
            continue;
        }
        if c.from_domain != revive && c.to_domain != revive {
            return Err(DomainError::new(format!(
                "internal error: channel `{}` ({} -> {}) was internal to the fused \
                 design but does not touch the revived domain `{revive}`",
                c.name, c.from_domain, c.to_domain
            )));
        }
        rehydrated.push(i);
    }

    Ok(DomainFission {
        parts,
        channel_map,
        rehydrated,
    })
}

/// Replaces every synchronizer in a design with a plain FIFO of the same
/// depth and type ("if the parameter a is instantiated to HW, the compiler
/// will replace the synchronizers with lightweight FIFOs since no actual
/// synchronization is necessary"). Used to run partition-annotated designs
/// unpartitioned, e.g. as the all-software reference.
pub fn fuse_syncs(design: &Design) -> Design {
    let mut out = design.clone();
    for p in &mut out.prims {
        if let PrimSpec::Sync { depth, ty, .. } = &p.spec {
            p.spec = PrimSpec::Fifo {
                depth: *depth,
                ty: ty.clone(),
            };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Path;
    use crate::domain::{HW, SW};
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

    /// src(SW) --feed--> inSync --compute(HW, +1)--> outSync --drain--> snk(SW)
    fn sample() -> Design {
        Design {
            name: "x".into(),
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
                        Box::new(enq(
                            2,
                            Expr::Bin(
                                crate::value::BinOp::Add,
                                Box::new(first(1)),
                                Box::new(Expr::int(32, 1)),
                            ),
                        )),
                        Box::new(deq(1)),
                    ),
                },
                RuleDef {
                    name: "drain".into(),
                    body: Action::Par(Box::new(enq(3, first(2))), Box::new(deq(2))),
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn splits_into_two_partitions() {
        let p = partition(&sample(), SW).unwrap();
        assert_eq!(p.partitions.len(), 2);
        let sw = p.partition(SW).unwrap();
        let hw = p.partition(HW).unwrap();
        assert_eq!(sw.rules.len(), 2, "feed + drain");
        assert_eq!(hw.rules.len(), 1, "compute");
        // SW holds: src, snk, inSync.tx, outSync.rx
        assert!(sw.prim_id("src").is_some());
        assert!(sw.prim_id("snk").is_some());
        assert!(sw.prim_id("inSync.tx").is_some());
        assert!(sw.prim_id("outSync.rx").is_some());
        // HW holds: inSync.rx, outSync.tx
        assert!(hw.prim_id("inSync.rx").is_some());
        assert!(hw.prim_id("outSync.tx").is_some());
    }

    #[test]
    fn channel_specs_describe_syncs() {
        let p = partition(&sample(), SW).unwrap();
        assert_eq!(p.channels.len(), 2);
        let c0 = &p.channels[0];
        assert_eq!(c0.name, "inSync");
        assert_eq!(c0.from_domain, SW);
        assert_eq!(c0.to_domain, HW);
        assert_eq!(c0.ty.words(), 1);
        let c1 = &p.channels[1];
        assert_eq!(c1.from_domain, HW);
        assert_eq!(c1.to_domain, SW);
    }

    #[test]
    fn partition_rules_reference_local_prims_only() {
        let p = partition(&sample(), SW).unwrap();
        for d in p.partitions.values() {
            for r in &d.rules {
                let rw = crate::analysis::RwSet::of_action(&r.body);
                for pid in rw.touched_prims() {
                    assert!(
                        pid.0 < d.prims.len(),
                        "rule {} targets out-of-partition prim",
                        r.name
                    );
                }
            }
        }
    }

    #[test]
    fn partitions_are_runnable() {
        // The HW partition alone: preload its rx fifo, run, check tx fifo.
        use crate::sched::HwSim;
        let p = partition(&sample(), SW).unwrap();
        let hw = p.partition(HW).unwrap();
        let mut store = crate::store::Store::new(hw);
        let rx = hw.prim_id("inSync.rx").unwrap();
        let tx = hw.prim_id("outSync.tx").unwrap();
        store
            .state_mut(rx)
            .call_action(PrimMethod::Enq, &[Value::int(32, 41)])
            .unwrap();
        let mut sim = HwSim::with_store(hw, store).unwrap();
        sim.run_until_quiescent(10).unwrap();
        assert_eq!(
            sim.store
                .state(tx)
                .call_value(PrimMethod::First, &[])
                .unwrap(),
            Value::int(32, 42)
        );
    }

    #[test]
    fn fuse_syncs_runs_unpartitioned() {
        use crate::sched::{SwOptions, SwRunner};
        let fused = fuse_syncs(&sample());
        assert!(fused.syncs().is_empty());
        let mut store = crate::store::Store::new(&fused);
        for i in 0..4 {
            store.push_source(PrimId(0), Value::int(32, i));
        }
        let mut r = SwRunner::with_store(&fused, store, SwOptions::default()).unwrap();
        r.run_until_quiescent(1000).unwrap();
        let out: Vec<i64> = r
            .store
            .sink_values(PrimId(3))
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn fuse_partitioned_round_trips_to_a_runnable_design() {
        use crate::sched::{SwOptions, SwRunner};
        let p = partition(&sample(), SW).unwrap();
        let fp = fuse_partitioned(&p).unwrap();
        // The two synchronizers come back as single FIFOs under their
        // original names, and neither half survives.
        for sync in ["inSync", "outSync"] {
            assert!(fp.prim_id(sync).is_some(), "{sync} merged");
            for half in ["tx", "rx"] {
                assert!(fp.prim_id(&format!("{sync}.{half}")).is_none());
            }
        }
        assert_eq!(fp.prims.len(), 4, "src, snk and the two merged FIFOs");
        // The fused design computes the same stream as the original.
        let src = fp.prim_id("src").unwrap();
        let snk = fp.prim_id("snk").unwrap();
        let mut store = crate::store::Store::new(&fp);
        for i in 0..4 {
            store.push_source(src, Value::int(32, i));
        }
        let mut r = SwRunner::with_store(&fp, store, SwOptions::default()).unwrap();
        r.run_until_quiescent(1000).unwrap();
        let out: Vec<i64> = r
            .store
            .sink_values(snk)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn single_domain_design_yields_one_partition() {
        let fused = fuse_syncs(&sample());
        let p = partition(&fused, SW).unwrap();
        assert_eq!(p.partitions.len(), 1);
        assert!(p.channels.is_empty());
    }

    #[test]
    fn missing_partition_is_a_diagnosable_error() {
        let p = partition(&sample(), SW).unwrap();
        let err = p.partition("nonexistent").unwrap_err().to_string();
        assert!(
            err.contains("nonexistent"),
            "names the missing domain: {err}"
        );
        assert!(
            err.contains(SW) && err.contains(HW),
            "lists what exists: {err}"
        );
    }

    /// src(SW) --feed--> s1 --stage1(HW,+1)--> s2 --stage2(HW2,+10)--> s3 --drain--> snk(SW)
    fn sample3() -> Design {
        let plus = |id: usize, k: i64| {
            Expr::Bin(
                crate::value::BinOp::Add,
                Box::new(first(id)),
                Box::new(Expr::int(32, k)),
            )
        };
        Design {
            name: "x3".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("src"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(32),
                        domain: SW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("s1"),
                    spec: PrimSpec::Sync {
                        depth: 2,
                        ty: Type::Int(32),
                        from: SW.into(),
                        to: HW.into(),
                    },
                },
                PrimDef {
                    path: Path::new("s2"),
                    spec: PrimSpec::Sync {
                        depth: 2,
                        ty: Type::Int(32),
                        from: HW.into(),
                        to: "HW2".into(),
                    },
                },
                PrimDef {
                    path: Path::new("s3"),
                    spec: PrimSpec::Sync {
                        depth: 2,
                        ty: Type::Int(32),
                        from: "HW2".into(),
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
                    name: "stage1".into(),
                    body: Action::Par(Box::new(enq(2, plus(1, 1))), Box::new(deq(1))),
                },
                RuleDef {
                    name: "stage2".into(),
                    body: Action::Par(Box::new(enq(3, plus(2, 10))), Box::new(deq(2))),
                },
                RuleDef {
                    name: "drain".into(),
                    body: Action::Par(Box::new(enq(4, first(3))), Box::new(deq(3))),
                },
            ],
            ..Default::default()
        }
    }

    /// Runs a single-domain design to quiescence and returns the sink
    /// stream for sources fed `0..n`.
    fn run_fused(d: &Design, src: &str, snk: &str, n: i64) -> Vec<i64> {
        use crate::sched::{SwOptions, SwRunner};
        let src = d.prim_id(src).unwrap();
        let snk = d.prim_id(snk).unwrap();
        let mut store = crate::store::Store::new(d);
        for i in 0..n {
            store.push_source(src, Value::int(32, i));
        }
        let mut r = SwRunner::with_store(d, store, SwOptions::default()).unwrap();
        r.run_until_quiescent(10_000).unwrap();
        r.store
            .sink_values(snk)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn fuse_domains_absorbs_one_domain_into_the_other() {
        let p = partition(&sample3(), SW).unwrap();
        assert_eq!(p.partitions.len(), 3);
        let f = fuse_domains(&p, "HW2", SW).unwrap();
        // HW survives untouched; HW2's rules moved into SW.
        assert_eq!(f.parts.partitions.len(), 2);
        assert!(f.parts.partition(HW).is_ok());
        let sw = f.parts.partition(SW).unwrap();
        assert_eq!(sw.rules.len(), 3, "feed + drain + stage2");
        // s3 (HW2 -> SW) collapsed into an internal FIFO; s1/s2 survive,
        // with s2's consumer re-homed to SW.
        assert!(sw.prim_id("s3").is_some());
        assert!(sw.prim_id("s3.rx").is_none());
        assert_eq!(f.channel_map, vec![Some(0), Some(1), None]);
        assert_eq!(f.parts.channels[1].to_domain, SW);
        assert_eq!(f.parts.channels[1].rx_path, "s2.rx");
        // The merged network still computes the same streams.
        let fp = fuse_partitioned(&f.parts).unwrap();
        assert_eq!(run_fused(&fp, "src", "snk", 4), vec![11, 12, 13, 14]);
    }

    #[test]
    fn fuse_domains_rejects_bad_arguments() {
        let p = partition(&sample3(), SW).unwrap();
        assert!(fuse_domains(&p, SW, SW).is_err(), "self-fusion");
        assert!(fuse_domains(&p, "nope", SW).is_err(), "unknown absorb");
        assert!(fuse_domains(&p, HW, "nope").is_err(), "unknown into");
    }

    #[test]
    fn split_domain_inverts_a_single_fusion() {
        let p = partition(&sample3(), SW).unwrap();
        let f = fuse_domains(&p, "HW2", SW).unwrap();
        let fission = split_domain(&p, &f.parts, &["HW2".to_string()], "HW2", SW).unwrap();
        // With nothing else absorbed, the split partitioning is the
        // original one again.
        assert_eq!(
            fission.parts.partitions.keys().collect::<Vec<_>>(),
            p.partitions.keys().collect::<Vec<_>>()
        );
        assert_eq!(fission.parts.channels.len(), p.channels.len());
        // The fused design kept s1 and s2; s3 (HW2 <-> SW) had been
        // internalized and reappears as a rehydrated channel.
        assert_eq!(fission.channel_map, vec![0, 1]);
        assert_eq!(fission.rehydrated, vec![2]);
        assert_eq!(fission.parts.channels[2].name, "s3");
        // Endpoints are restored: s2 flows HW -> HW2 again.
        assert_eq!(fission.parts.channels[1].to_domain, "HW2");
    }

    #[test]
    fn split_domain_with_other_domains_still_absorbed() {
        let p = partition(&sample3(), SW).unwrap();
        let absorbed = vec![HW.to_string(), "HW2".to_string()];
        let f1 = fuse_domains(&p, HW, SW).unwrap();
        let f2 = fuse_domains(&f1.parts, "HW2", SW).unwrap();
        assert!(f2.parts.channels.is_empty(), "everything internalized");
        // Split HW2 back out while HW stays absorbed.
        let fission = split_domain(&p, &f2.parts, &absorbed, "HW2", SW).unwrap();
        assert_eq!(fission.parts.partitions.len(), 2);
        assert!(fission.parts.partition("HW2").is_ok());
        // s2 (originally HW -> HW2) re-homes its producer to SW; s3
        // (HW2 -> SW) is back. Both were internal to the fused design.
        assert_eq!(fission.channel_map, Vec::<usize>::new());
        assert_eq!(fission.rehydrated.len(), 2);
        let names: Vec<&str> = fission
            .parts
            .channels
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["s2", "s3"]);
        assert_eq!(fission.parts.channels[0].from_domain, SW);
        assert_eq!(fission.parts.channels[0].to_domain, "HW2");
        // The split network still computes the same streams.
        let fp = fuse_partitioned(&fission.parts).unwrap();
        assert_eq!(run_fused(&fp, "src", "snk", 4), vec![11, 12, 13, 14]);
    }

    #[test]
    fn split_domain_rejects_bad_arguments() {
        let p = partition(&sample3(), SW).unwrap();
        let f = fuse_domains(&p, "HW2", SW).unwrap();
        // Not absorbed.
        assert!(split_domain(&p, &f.parts, &[], "HW2", SW).is_err());
        // Still has its own partition (HW was never absorbed).
        assert!(split_domain(&p, &f.parts, &[HW.to_string()], HW, SW).is_err());
    }

    #[test]
    fn fuse_partitioned_round_trips_every_sample_design() {
        // fuse_partitioned(partition(d)) == d up to renaming: same
        // primitives (with syncs as FIFOs), same rule names, same streams.
        for (d, expect) in [
            (sample(), vec![1, 2, 3, 4]),
            (sample3(), vec![11, 12, 13, 14]),
            (fuse_syncs(&sample()), vec![1, 2, 3, 4]),
        ] {
            let p = partition(&d, SW).unwrap();
            let fp = fuse_partitioned(&p).unwrap();
            let reference = fuse_syncs(&d);
            let prims = |d: &Design| {
                let mut v: Vec<(String, String)> = d
                    .prims
                    .iter()
                    .map(|p| (p.path.0.clone(), format!("{:?}", p.spec)))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(prims(&fp), prims(&reference), "{}", d.name);
            let rules = |d: &Design| {
                let mut v: Vec<String> = d.rules.iter().map(|r| r.name.clone()).collect();
                v.sort();
                v
            };
            assert_eq!(rules(&fp), rules(&reference), "{}", d.name);
            assert_eq!(
                run_fused(&fp, "src", "snk", 4),
                expect,
                "{}: fused behavior",
                d.name
            );
            assert_eq!(
                run_fused(&reference, "src", "snk", 4),
                expect,
                "{}: reference behavior",
                d.name
            );
        }
    }
}
