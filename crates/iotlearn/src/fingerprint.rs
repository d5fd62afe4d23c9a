//! SKU fingerprinting from passive traffic observation.
//!
//! The crowdsourced repository is keyed by SKU ("Google Nest version
//! XYZ rather than 'thermostat'", §4), which begs the question the paper
//! leaves open: how does a deployment know *which* SKU just joined its
//! network, so it can subscribe to the right feed and deploy the right
//! chain? This module answers it the way real systems do: a behavioural
//! fingerprint — which protocol planes the device uses, what telemetry
//! it emits and how often — matched against a fingerprint database
//! learned from labelled deployments.

use iotdev::proto::TelemetryKind;
use iotdev::registry::Sku;
use std::collections::{BTreeMap, BTreeSet};

/// The observable behavioural features of one device.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// Destination ports the device *serves* (responds on).
    pub served_ports: BTreeSet<u16>,
    /// Telemetry kinds it emits.
    pub telemetry: BTreeSet<TelemetryKind>,
    /// Telemetry period bucket (rounded to seconds; 0 = none seen).
    pub period_s: u64,
}

impl Fingerprint {
    /// Record that the device answered on a port.
    pub fn serve(&mut self, port: u16) -> &mut Self {
        self.served_ports.insert(port);
        self
    }

    /// Record an emitted telemetry kind.
    pub fn emit(&mut self, kind: TelemetryKind) -> &mut Self {
        self.telemetry.insert(kind);
        self
    }

    /// Similarity in `[0, 1]`: Jaccard over ports and telemetry, with a
    /// period-agreement bonus term.
    pub(crate) fn similarity(&self, other: &Fingerprint) -> f64 {
        let jaccard = |a: &BTreeSet<u16>, b: &BTreeSet<u16>| -> f64 {
            let inter = a.intersection(b).count() as f64;
            let union = a.union(b).count() as f64;
            if union == 0.0 {
                1.0
            } else {
                inter / union
            }
        };
        let ports = jaccard(&self.served_ports, &other.served_ports);
        let tele_inter = self.telemetry.intersection(&other.telemetry).count() as f64;
        let tele_union = self.telemetry.union(&other.telemetry).count() as f64;
        let tele = if tele_union == 0.0 { 1.0 } else { tele_inter / tele_union };
        let period = if self.period_s == other.period_s { 1.0 } else { 0.0 };
        0.45 * ports + 0.45 * tele + 0.1 * period
    }
}

/// A fingerprint classified with its confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Identification {
    /// Best-matching SKU.
    pub sku: Sku,
    /// Similarity score of the best match.
    pub confidence: f64,
}

/// The community fingerprint database (learned from labelled
/// deployments and shared like the signature repository).
#[derive(Debug, Default)]
pub struct FingerprintDb {
    entries: BTreeMap<Sku, Fingerprint>,
}

impl FingerprintDb {
    /// An empty database.
    pub(crate) fn new() -> FingerprintDb {
        FingerprintDb::default()
    }

    /// Register/overwrite a SKU's reference fingerprint.
    pub(crate) fn learn(&mut self, sku: Sku, fingerprint: Fingerprint) {
        self.entries.insert(sku, fingerprint);
    }

    /// Identify an observed fingerprint; `None` if no SKU clears
    /// `min_confidence`.
    pub fn identify(&self, observed: &Fingerprint, min_confidence: f64) -> Option<Identification> {
        self.entries
            .iter()
            .map(|(sku, reference)| Identification {
                sku: sku.clone(),
                confidence: observed.similarity(reference),
            })
            .max_by(|a, b| a.confidence.total_cmp(&b.confidence))
            .filter(|id| id.confidence >= min_confidence)
    }

    /// The canonical fingerprints for the Table 1 SKUs — what a labelled
    /// reference deployment would contribute.
    pub fn with_table1() -> FingerprintDb {
        use iotdev::proto::ports;
        let mut db = FingerprintDb::new();
        let fp = |served: &[u16], kinds: &[TelemetryKind], period: u64| {
            let mut f = Fingerprint::default();
            for p in served {
                f.serve(*p);
            }
            for k in kinds {
                f.emit(*k);
            }
            f.period_s = period;
            f
        };
        db.learn(
            Sku::new("avtech", "ip-cam", "1.3"),
            fp(&[ports::MGMT, ports::CONTROL], &[TelemetryKind::Motion], 5),
        );
        db.learn(
            Sku::new("generic", "settop-box", "2.0"),
            fp(&[ports::MGMT, ports::CONTROL], &[TelemetryKind::Status], 5),
        );
        db.learn(
            Sku::new("smartchill", "fridge", "0.9"),
            fp(&[ports::MGMT], &[TelemetryKind::Status], 5),
        );
        db.learn(
            Sku::new("cctvcorp", "dvr-cam", "4.1"),
            fp(&[ports::MGMT, ports::CONTROL], &[TelemetryKind::Motion], 10),
        );
        db.learn(
            Sku::new("citysys", "traffic-light", "1.0"),
            fp(&[ports::CONTROL], &[TelemetryKind::Status], 5),
        );
        db.learn(
            Sku::new("belkin", "wemo", "1.0"),
            fp(&[ports::MGMT, ports::CONTROL, ports::DNS], &[TelemetryKind::Power], 5),
        );
        db.learn(
            Sku::new("belkin", "wemo", "1.1"),
            fp(&[ports::MGMT, ports::CONTROL, ports::CLOUD], &[TelemetryKind::Power], 5),
        );
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::proto::ports;

    fn observed_wemo_v10() -> Fingerprint {
        let mut f = Fingerprint::default();
        f.serve(ports::MGMT).serve(ports::CONTROL).serve(ports::DNS).emit(TelemetryKind::Power);
        f.period_s = 5;
        f
    }

    #[test]
    fn identifies_the_right_wemo_firmware() {
        let db = FingerprintDb::with_table1();
        let id = db.identify(&observed_wemo_v10(), 0.8).expect("should identify");
        // The DNS plane distinguishes firmware 1.0 from the cloud-plane 1.1.
        assert_eq!(id.sku, Sku::new("belkin", "wemo", "1.0"));
        assert!(id.confidence > 0.9);
    }

    #[test]
    fn sku_granularity_beats_class_granularity() {
        // Two cameras of different SKUs: distinguished by their telemetry
        // period even though ports and telemetry kinds match.
        let db = FingerprintDb::with_table1();
        let mut avtech = Fingerprint::default();
        avtech.serve(ports::MGMT).serve(ports::CONTROL).emit(TelemetryKind::Motion);
        avtech.period_s = 5;
        let id = db.identify(&avtech, 0.5).unwrap();
        assert_eq!(id.sku, Sku::new("avtech", "ip-cam", "1.3"));
        let mut cctv = avtech.clone();
        cctv.period_s = 10;
        let id = db.identify(&cctv, 0.5).unwrap();
        assert_eq!(id.sku, Sku::new("cctvcorp", "dvr-cam", "4.1"));
    }

    #[test]
    fn unknown_devices_stay_unknown() {
        let db = FingerprintDb::with_table1();
        let mut alien = Fingerprint::default();
        alien.serve(9999).emit(TelemetryKind::Light);
        alien.period_s = 60;
        assert!(db.identify(&alien, 0.8).is_none());
        // With a permissive threshold it returns *something* — the caller
        // owns the precision/recall trade-off.
        assert!(db.identify(&alien, 0.0).is_some());
    }

    #[test]
    fn similarity_is_reflexive_and_bounded() {
        let f = observed_wemo_v10();
        assert!((f.similarity(&f) - 1.0).abs() < 1e-9);
        let empty = Fingerprint::default();
        let s = f.similarity(&empty);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn empty_db_identifies_nothing() {
        let db = FingerprintDb::new();
        assert!(db.entries.is_empty());
        assert!(db.identify(&observed_wemo_v10(), 0.0).is_none());
    }
}
