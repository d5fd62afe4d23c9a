//! Resource management for the µmbox substrate.
//!
//! The paper's two deployment models, both expressible here:
//! an enterprise "well-provisioned on-premise cluster with a pool of
//! commodity server machines", and a home "upgraded version of an IoT
//! router (e.g., Google OnHub) with compute capabilities" — i.e. a
//! single small node.

use crate::lifecycle::VmKind;
use iotdev::device::DeviceId;

/// Placement policy across servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// First server with room.
    FirstFit,
    /// Server with the most free memory.
    LeastLoaded,
}

/// One server (or the IoT router).
#[derive(Debug, Clone)]
pub(crate) struct Server {
    /// Memory capacity in MiB.
    pub capacity_mib: u32,
    /// Memory in use.
    pub used_mib: u32,
    /// Placements on this server: (device, kind).
    pub placements: Vec<(DeviceId, VmKind)>,
}

impl Server {
    fn free(&self) -> u32 {
        self.capacity_mib.saturating_sub(self.used_mib)
    }
}

/// A placement error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoCapacity {
    /// MiB requested.
    pub requested_mib: u32,
    /// Largest free block available.
    pub largest_free_mib: u32,
}

/// The compute substrate µmboxes run on.
#[derive(Debug, Clone)]
pub struct Cluster {
    servers: Vec<Server>,
    policy: PlacementPolicy,
}

impl Cluster {
    /// An enterprise cluster of `n` servers with `mib` MiB each.
    pub fn enterprise(n: usize, mib: u32, policy: PlacementPolicy) -> Cluster {
        Cluster {
            servers: (0..n)
                .map(|_| Server { capacity_mib: mib, used_mib: 0, placements: Vec::new() })
                .collect(),
            policy,
        }
    }

    /// A home IoT router: one node, 2 GiB.
    pub fn iot_router() -> Cluster {
        Cluster::enterprise(1, 2048, PlacementPolicy::FirstFit)
    }

    /// Place a µmbox for `device`; returns the server index.
    pub fn place(&mut self, device: DeviceId, kind: VmKind) -> Result<usize, NoCapacity> {
        let need = kind.footprint_mib();
        let candidate = match self.policy {
            PlacementPolicy::FirstFit => self.servers.iter().position(|s| s.free() >= need),
            PlacementPolicy::LeastLoaded => {
                let mut best: Option<(usize, u32)> = None;
                for (i, s) in self.servers.iter().enumerate() {
                    if s.free() >= need && best.is_none_or(|(_, f)| s.free() > f) {
                        best = Some((i, s.free()));
                    }
                }
                best.map(|(i, _)| i)
            }
        };
        match candidate {
            Some(i) => {
                self.servers[i].used_mib += need;
                self.servers[i].placements.push((device, kind));
                Ok(i)
            }
            None => Err(NoCapacity {
                requested_mib: need,
                largest_free_mib: self.servers.iter().map(|s| s.free()).max().unwrap_or(0),
            }),
        }
    }

    /// Release a device's placements (all of them).
    pub fn release(&mut self, device: DeviceId) {
        for server in &mut self.servers {
            let mut i = 0;
            while i < server.placements.len() {
                if server.placements[i].0 == device {
                    let (_, kind) = server.placements.remove(i);
                    server.used_mib = server.used_mib.saturating_sub(kind.footprint_mib());
                } else {
                    i += 1;
                }
            }
        }
    }

    /// How many µmboxes of `kind` this cluster can still host.
    pub fn remaining_slots(&self, kind: VmKind) -> u32 {
        self.servers.iter().map(|s| s.free() / kind.footprint_mib().max(1)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_hosts_many_unikernels_but_few_vms() {
        let router = Cluster::iot_router();
        assert_eq!(router.remaining_slots(VmKind::Unikernel), 256);
        assert_eq!(router.remaining_slots(VmKind::FullVm), 4);
        assert_eq!(router.remaining_slots(VmKind::Monolithic), 0);
    }

    #[test]
    fn first_fit_fills_in_order() {
        let mut c = Cluster::enterprise(2, 128, PlacementPolicy::FirstFit);
        for i in 0..16 {
            assert_eq!(c.place(DeviceId(i), VmKind::Unikernel).unwrap(), 0);
        }
        assert_eq!(c.place(DeviceId(99), VmKind::Unikernel).unwrap(), 1);
    }

    #[test]
    fn least_loaded_balances() {
        let mut c = Cluster::enterprise(2, 128, PlacementPolicy::LeastLoaded);
        let a = c.place(DeviceId(0), VmKind::Unikernel).unwrap();
        let b = c.place(DeviceId(1), VmKind::Unikernel).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn rejection_when_full() {
        let mut c = Cluster::enterprise(1, 16, PlacementPolicy::FirstFit);
        assert!(c.place(DeviceId(0), VmKind::Unikernel).is_ok());
        assert!(c.place(DeviceId(1), VmKind::Unikernel).is_ok());
        let err = c.place(DeviceId(2), VmKind::Container).unwrap_err();
        assert_eq!(err.requested_mib, 64);
    }

    #[test]
    fn release_frees_capacity() {
        let mut c = Cluster::enterprise(1, 64, PlacementPolicy::FirstFit);
        c.place(DeviceId(0), VmKind::Unikernel).unwrap();
        c.place(DeviceId(0), VmKind::Unikernel).unwrap();
        c.place(DeviceId(1), VmKind::Unikernel).unwrap();
        assert_eq!(c.remaining_slots(VmKind::Unikernel), 5);
        c.release(DeviceId(0));
        // Both of device 0's placements went; device 1's 8 MiB stays.
        assert_eq!(c.remaining_slots(VmKind::Unikernel), 7);
    }
}
