//! The hierarchical controller (§5.1's scaling proposal).
//!
//! "One possible approach ... is to logically partition the set of IoT
//! devices depending on the frequency in the interaction dependencies.
//! Thus, we can have a hierarchical control architecture where
//! frequently interacting components are handled together by a low-level
//! controller and infrequent interactions are handled at the global
//! controller."
//!
//! Partitioning by the policy's *coupling structure* (via
//! [`iotpolicy::prune::factor`]) puts each independent component under
//! its own local controller — every rule then lives at exactly one
//! local, the global controller idles, and per-event service time stays
//! small. The `Random` partitioning (ablation A2) ignores coupling:
//! rules that span partitions must be escalated to the global
//! controller, which re-grows exactly the bottleneck the hierarchy was
//! meant to remove.

use crate::controller::{Controller, ControllerConfig};
use crate::directive::Directive;
use iotdev::device::DeviceId;
use iotdev::env::EnvVar;
use iotdev::events::SecurityEvent;
use iotnet::time::{SimDuration, SimTime};
use iotpolicy::policy::FsmPolicy;
use iotpolicy::prune::{factor, Slot};
use iotpolicy::state_space::StateSchema;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use umbox::element::ViewHandle;

/// How devices are split across local controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// One local controller per independent policy component (the
    /// paper's frequency/coupling-based proposal).
    ByCoupling,
    /// `parts` random partitions (ablation A2).
    Random {
        /// Number of partitions.
        parts: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Extract the sub-policy for a device subset: the schema restricted to
/// those devices (env vars kept in full — their domains are tiny) and
/// every rule entirely contained in the subset. Returns the sub-policy
/// and the indices of rules it absorbed.
fn subpolicy(policy: &FsmPolicy, devices: &[DeviceId]) -> (FsmPolicy, Vec<usize>) {
    let mut schema = StateSchema::new();
    for d in &policy.schema.devices {
        if devices.contains(&d.id) {
            schema.add_device_with(d.id, d.class, d.contexts.clone());
        }
    }
    for var in &policy.schema.env_vars {
        schema.add_env(*var);
    }
    let mut sub = FsmPolicy::new(schema);
    sub.baseline = policy.baseline.clone();
    let mut absorbed = Vec::new();
    for (i, rule) in policy.rules.iter().enumerate() {
        let contained =
            rule.pattern.contexts.keys().chain(rule.postures.keys()).all(|id| devices.contains(id));
        if contained {
            sub.add_rule(rule.clone());
            absorbed.push(i);
        }
    }
    (sub, absorbed)
}

/// The two-level controller.
pub struct HierarchicalController {
    /// Local controllers with their device scopes.
    locals: Vec<(Vec<DeviceId>, Controller)>,
    /// The global controller (handles partition-spanning rules).
    global: Controller,
    device_home: HashMap<DeviceId, usize>,
}

impl HierarchicalController {
    /// Partition `policy` and build the hierarchy.
    pub fn new(
        policy: FsmPolicy,
        partitioning: Partitioning,
        config: ControllerConfig,
        gate_view: ViewHandle,
    ) -> HierarchicalController {
        let groups: Vec<Vec<DeviceId>> = match partitioning {
            Partitioning::ByCoupling => {
                let factored = factor(&policy);
                factored
                    .components
                    .iter()
                    .map(|c| {
                        c.slots
                            .iter()
                            .filter_map(|s| match s {
                                Slot::Device(i) => Some(policy.schema.devices[*i].id),
                                Slot::Env(_) => None,
                            })
                            .collect::<Vec<_>>()
                    })
                    .filter(|g: &Vec<DeviceId>| !g.is_empty())
                    .collect()
            }
            Partitioning::Random { parts, seed } => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut ids: Vec<DeviceId> = policy.schema.devices.iter().map(|d| d.id).collect();
                ids.shuffle(&mut rng);
                let parts = parts.max(1);
                let mut groups = vec![Vec::new(); parts];
                for id in ids {
                    groups[rng.gen_range(0..parts)].push(id);
                }
                groups.into_iter().filter(|g| !g.is_empty()).collect()
            }
        };

        let mut absorbed_anywhere = vec![false; policy.rules.len()];
        let mut locals = Vec::with_capacity(groups.len());
        let mut device_home = HashMap::new();
        for (gi, group) in groups.iter().enumerate() {
            let (sub, absorbed) = subpolicy(&policy, group);
            for i in &absorbed {
                absorbed_anywhere[*i] = true;
            }
            for id in group {
                device_home.insert(*id, gi);
            }
            locals.push((group.clone(), Controller::new(sub, config, gate_view.clone())));
        }

        // Spanning rules escalate to the global controller.
        let mut global_policy = FsmPolicy::new(policy.schema.clone());
        global_policy.baseline = policy.baseline.clone();
        for (i, rule) in policy.rules.iter().enumerate() {
            if !absorbed_anywhere[i] {
                global_policy.add_rule(rule.clone());
            }
        }
        let global = Controller::new(global_policy, config, gate_view);

        HierarchicalController { locals, global, device_home }
    }

    /// Number of local controllers.
    pub fn local_count(&self) -> usize {
        self.locals.len()
    }

    /// Rules escalated to the global controller.
    pub fn global_rule_count(&self) -> usize {
        self.global.policy.rules.len()
    }

    /// Largest local policy (rules) — the hot spot.
    pub fn max_local_rules(&self) -> usize {
        self.locals.iter().map(|(_, c)| c.policy.rules.len()).max().unwrap_or(0)
    }

    /// Route one event: to its home local, and to the global controller
    /// only if the global has rules that could care (it watches
    /// everything otherwise uncovered).
    pub fn ingest(&mut self, event: SecurityEvent) {
        if let Some(&home) = self.device_home.get(&event.device) {
            self.locals[home].1.ingest(event);
        }
        if self.global_rule_count() > 0 {
            self.global.ingest(event);
        }
    }

    /// Broadcast an environment report.
    pub fn ingest_env(&mut self, at: SimTime, values: &[(EnvVar, &'static str)]) {
        for (_, local) in &mut self.locals {
            local.ingest_env(at, values);
        }
        self.global.ingest_env(at, values);
    }

    /// The earliest [`Controller::next_due`] across the hierarchy.
    pub fn next_due(&self) -> Option<SimTime> {
        let locals = self.locals.iter().filter_map(|(_, local)| local.next_due());
        locals.chain(self.global.next_due()).min()
    }

    /// Step every controller; returns the merged directives.
    pub fn step(&mut self, now: SimTime) -> Vec<Directive> {
        let mut out = Vec::new();
        for (_, local) in &mut self.locals {
            out.extend(local.step(now));
        }
        out.extend(self.global.step(now));
        out
    }

    /// Initial reconciliation across all controllers.
    pub fn reconcile(&mut self, now: SimTime) -> Vec<Directive> {
        let mut out = Vec::new();
        for (_, local) in &mut self.locals {
            out.extend(local.reconcile(now));
        }
        out.extend(self.global.reconcile(now));
        out
    }

    /// Worst event latency observed across controllers.
    pub fn worst_latency(&self) -> SimDuration {
        let mut worst = self.global.stats.latency.max();
        for (_, local) in &self.locals {
            worst = worst.max(local.stats.latency.max());
        }
        worst
    }

    /// The largest per-controller median latency (the busiest
    /// controller's typical event).
    pub fn worst_median(&self) -> SimDuration {
        let mut worst = self.global.stats.latency.median();
        for (_, local) in &self.locals {
            worst = worst.max(local.stats.latency.median());
        }
        worst
    }

    /// Total events processed across controllers.
    pub fn total_processed(&self) -> u64 {
        self.global.stats.events_processed
            + self.locals.iter().map(|(_, c)| c.stats.events_processed).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::device::DeviceClass;
    use iotdev::events::SecurityEventKind;
    use iotpolicy::compile::PolicyCompiler;

    fn many_device_policy(n: u32) -> FsmPolicy {
        let mut c = PolicyCompiler::new();
        for i in 0..n {
            c.device(DeviceId(i), DeviceClass::Camera, &[]);
        }
        // One cross-device rule coupling devices 0 and 1.
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        c.build()
    }

    #[test]
    fn coupling_partition_isolates_components() {
        let policy = many_device_policy(10);
        let h = HierarchicalController::new(
            policy,
            Partitioning::ByCoupling,
            ControllerConfig::default(),
            ViewHandle::new(),
        );
        // Devices 0,1 coupled → 9 components (1 pair + 8 singletons).
        assert_eq!(h.local_count(), 9);
        // No rules span components: the global controller idles.
        assert_eq!(h.global_rule_count(), 0);
        // Each local policy is small (the 0/1 pair holds 2×2 escalation
        // rules plus the two protect rules).
        assert!(h.max_local_rules() <= 6);
    }

    #[test]
    fn random_partition_escalates_spanning_rules() {
        let policy = many_device_policy(10);
        let h = HierarchicalController::new(
            policy,
            Partitioning::Random { parts: 5, seed: 3 },
            ControllerConfig::default(),
            ViewHandle::new(),
        );
        // With high probability devices 0 and 1 land apart, pushing the
        // cross-device rule (and nothing else) to the global controller.
        // Even if they land together this seed keeps the test stable.
        assert!(h.local_count() <= 5);
        let spanning = h.global_rule_count();
        assert!(spanning <= 2); // the two protect rules at most
    }

    #[test]
    fn events_route_to_home_local() {
        let policy = many_device_policy(4);
        let mut h = HierarchicalController::new(
            policy,
            Partitioning::ByCoupling,
            ControllerConfig::default(),
            ViewHandle::new(),
        );
        h.reconcile(SimTime::ZERO);
        h.ingest(SecurityEvent::new(
            SimTime::from_millis(1),
            DeviceId(3),
            SecurityEventKind::AuthFailureBurst,
        ));
        let directives = h.step(SimTime::from_secs(1));
        assert!(directives.iter().any(|d| d.device() == DeviceId(3)));
        assert_eq!(h.total_processed(), 1);
    }

    #[test]
    fn cross_device_reaction_still_works_in_hierarchy() {
        let policy = many_device_policy(6);
        let mut h = HierarchicalController::new(
            policy,
            Partitioning::ByCoupling,
            ControllerConfig::default(),
            ViewHandle::new(),
        );
        h.reconcile(SimTime::ZERO);
        // Device 0 suspicious → device 1 must get the block posture,
        // handled entirely inside their shared local controller.
        h.ingest(SecurityEvent::new(
            SimTime::from_millis(1),
            DeviceId(0),
            SecurityEventKind::SignatureMatch,
        ));
        let directives = h.step(SimTime::from_secs(1));
        assert!(directives.iter().any(|d| d.device() == DeviceId(1)));
    }

    #[test]
    fn hierarchy_beats_flat_on_worst_latency() {
        let n = 40;
        let mk_events = || {
            (0..200u64).map(|i| {
                SecurityEvent::new(
                    SimTime::from_micros(i * 10),
                    DeviceId((i % n as u64) as u32),
                    SecurityEventKind::AuthFailureBurst,
                )
            })
        };
        // Flat.
        let mut flat =
            Controller::new(many_device_policy(n), ControllerConfig::default(), ViewHandle::new());
        flat.reconcile(SimTime::ZERO);
        for e in mk_events() {
            flat.ingest(e);
        }
        flat.step(SimTime::from_secs(60));
        // Hierarchical.
        let mut hier = HierarchicalController::new(
            many_device_policy(n),
            Partitioning::ByCoupling,
            ControllerConfig::default(),
            ViewHandle::new(),
        );
        hier.reconcile(SimTime::ZERO);
        for e in mk_events() {
            hier.ingest(e);
        }
        hier.step(SimTime::from_secs(60));
        assert!(
            hier.worst_latency() < flat.stats.latency.max(),
            "hier {} vs flat {}",
            hier.worst_latency(),
            flat.stats.latency.max()
        );
    }
}
