//! SKU registry — Table 1 of the paper as a device database.
//!
//! The paper's Table 1 lists seven reported vulnerability populations.
//! This registry reproduces each row as a concrete SKU (vendor / model /
//! firmware) with its device class, vulnerability classes and deployed
//! population.

use crate::device::DeviceClass;
use crate::vuln::Vulnerability;
use core::fmt;
use std::sync::Arc;

/// A stock-keeping unit: the paper's point is that learning must work at
/// SKU granularity ("Google Nest version XYZ"), not class granularity.
///
/// Every device, signature and rule of a SKU carries it, so its strings
/// are shared: a clone is three reference-count bumps. They are `Arc`s
/// because signatures cross fleet worker threads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sku {
    /// Vendor name.
    pub vendor: Arc<str>,
    /// Model name.
    pub model: Arc<str>,
    /// Firmware version.
    pub firmware: Arc<str>,
}

impl Sku {
    /// Construct a SKU.
    pub fn new(vendor: &str, model: &str, firmware: &str) -> Sku {
        Sku { vendor: vendor.into(), model: model.into(), firmware: firmware.into() }
    }
}

impl fmt::Display for Sku {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.vendor, self.model, self.firmware)
    }
}

/// One registry entry: a SKU with its class, flaws and field population.
#[derive(Debug, Clone, PartialEq)]
pub struct SkuEntry {
    /// The SKU.
    pub sku: Sku,
    /// Device class.
    pub class: DeviceClass,
    /// Vulnerability classes every instance ships with.
    pub vulns: Vec<Vulnerability>,
    /// Deployed population reported in the paper.
    pub population: u64,
    /// Table 1 row this entry reproduces, if any.
    pub table1_row: Option<u8>,
    /// The vulnerability description as the paper words it.
    pub description: &'static str,
}

/// The SKU database.
#[derive(Debug, Clone, Default)]
pub struct SkuRegistry {
    entries: Vec<SkuEntry>,
}

impl SkuRegistry {
    /// An empty registry.
    pub(crate) fn new() -> SkuRegistry {
        SkuRegistry::default()
    }

    /// The registry reproducing the paper's Table 1, row by row.
    pub fn table1() -> SkuRegistry {
        let mut r = SkuRegistry::new();
        r.add(SkuEntry {
            sku: Sku::new("avtech", "ip-cam", "1.3"),
            class: DeviceClass::Camera,
            vulns: vec![Vulnerability::default_admin_admin()],
            population: 130_000,
            table1_row: Some(1),
            description: "exposed account/password",
        });
        r.add(SkuEntry {
            sku: Sku::new("generic", "settop-box", "2.0"),
            class: DeviceClass::SetTopBox,
            vulns: vec![Vulnerability::OpenMgmtAccess],
            population: 61_000,
            table1_row: Some(2),
            description: "exposed access",
        });
        r.add(SkuEntry {
            sku: Sku::new("smartchill", "fridge", "0.9"),
            class: DeviceClass::Refrigerator,
            vulns: vec![Vulnerability::OpenMgmtAccess],
            population: 146,
            table1_row: Some(3),
            description: "exposed access",
        });
        r.add(SkuEntry {
            sku: Sku::new("cctvcorp", "dvr-cam", "4.1"),
            class: DeviceClass::Camera,
            vulns: vec![Vulnerability::ExposedKeyPair { key: 0x5eed_c0de_5eed_c0de }],
            population: 30_000,
            table1_row: Some(4),
            description: "unprotected RSA key pairs",
        });
        r.add(SkuEntry {
            sku: Sku::new("citysys", "traffic-light", "1.0"),
            class: DeviceClass::TrafficLight,
            vulns: vec![Vulnerability::NoAuthControl],
            population: 219,
            table1_row: Some(5),
            description: "no credentials",
        });
        r.add(SkuEntry {
            sku: Sku::new("belkin", "wemo", "1.0"),
            class: DeviceClass::SmartPlug,
            vulns: vec![Vulnerability::OpenDnsResolver],
            population: 500_000,
            table1_row: Some(6),
            description: "open DNS resolver, use for DDoS",
        });
        r.add(SkuEntry {
            sku: Sku::new("belkin", "wemo", "1.1"),
            class: DeviceClass::SmartPlug,
            vulns: vec![Vulnerability::CloudBypassBackdoor],
            population: 500_000,
            table1_row: Some(7),
            description: "exposed access, bypass app",
        });
        r
    }

    /// Add an entry.
    pub(crate) fn add(&mut self, entry: SkuEntry) {
        self.entries.push(entry);
    }

    /// The entry reproducing a given Table 1 row.
    pub fn by_row(&self, row: u8) -> Option<&SkuEntry> {
        self.entries.iter().find(|e| e.table1_row == Some(row))
    }

    /// Sum of field populations (the paper's ">1.2M vulnerable devices"
    /// headline from this table alone).
    pub fn total_population(&self) -> u64 {
        self.entries.iter().map(|e| e.population).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_seven_rows() {
        let r = SkuRegistry::table1();
        assert_eq!(r.entries.len(), 7);
        for row in 1..=7 {
            assert!(r.by_row(row).is_some(), "row {row} missing");
        }
        assert!(r.by_row(8).is_none());
    }

    #[test]
    fn table1_populations_match_paper() {
        let r = SkuRegistry::table1();
        assert_eq!(r.by_row(1).unwrap().population, 130_000);
        assert_eq!(r.by_row(2).unwrap().population, 61_000);
        assert_eq!(r.by_row(3).unwrap().population, 146);
        assert_eq!(r.by_row(4).unwrap().population, 30_000);
        assert_eq!(r.by_row(5).unwrap().population, 219);
        assert_eq!(r.by_row(6).unwrap().population, 500_000);
        assert_eq!(r.by_row(7).unwrap().population, 500_000);
        assert!(r.total_population() > 1_200_000);
    }

    #[test]
    fn sku_display() {
        assert_eq!(Sku::new("belkin", "wemo", "1.0").to_string(), "belkin/wemo/1.0");
    }
}
