//! Executable vulnerability models — Table 1 of the paper, made concrete.
//!
//! Each vulnerability class changes how a device's authentication or
//! request-handling behaves. The paper's core premise is that these flaws
//! are **unfixable at the host** (no patches, no interface to change the
//! password, vendors gone) — so the device code in this crate deliberately
//! offers no way to remove them. Only the network (the `umbox` layer) can
//! mitigate.

/// A vulnerability class attached to a device instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Vulnerability {
    /// Table 1 rows 1–3: a hardcoded default account the user cannot
    /// change (`admin`/`admin` on Avtech cameras; the device's
    /// `SetPassword` silently fails to remove it).
    DefaultCredentials {
        /// Hardcoded username.
        user: String,
        /// Hardcoded password.
        pass: String,
    },
    /// Table 1 rows 2–3: the management interface requires no
    /// authentication at all (exposed set-top boxes, the smart fridge).
    OpenMgmtAccess,
    /// Table 1 row 4: the firmware image leaks the device's RSA key pair;
    /// anyone holding the key authenticates as the device owner.
    ExposedKeyPair {
        /// The (simulated) private-key fingerprint; identical across the
        /// whole SKU, which is what made the real flaw catastrophic.
        key: u64,
    },
    /// Table 1 row 5: the control channel accepts actuation commands with
    /// no credentials (the 219 traffic lights).
    NoAuthControl,
    /// Table 1 row 6: the device runs an open DNS resolver usable for
    /// reflection/amplification DDoS (Belkin Wemo).
    OpenDnsResolver,
    /// Table 1 row 7: a vendor-cloud channel accepts commands that bypass
    /// the app's authentication entirely (Belkin Wemo remote access).
    CloudBypassBackdoor,
}

impl Vulnerability {
    /// A short stable identifier used in signatures and reports.
    pub fn id(&self) -> &'static str {
        match self {
            Vulnerability::DefaultCredentials { .. } => "default-credentials",
            Vulnerability::OpenMgmtAccess => "open-mgmt-access",
            Vulnerability::ExposedKeyPair { .. } => "exposed-key-pair",
            Vulnerability::NoAuthControl => "no-auth-control",
            Vulnerability::OpenDnsResolver => "open-dns-resolver",
            Vulnerability::CloudBypassBackdoor => "cloud-bypass-backdoor",
        }
    }

    /// The canonical Avtech-style default account.
    pub fn default_admin_admin() -> Vulnerability {
        Vulnerability::DefaultCredentials { user: "admin".into(), pass: "admin".into() }
    }

    /// All six classes with representative parameters, for corpus
    /// generation.
    pub fn all_classes() -> Vec<Vulnerability> {
        vec![
            Vulnerability::default_admin_admin(),
            Vulnerability::OpenMgmtAccess,
            Vulnerability::ExposedKeyPair { key: 0x5eed_c0de_5eed_c0de },
            Vulnerability::NoAuthControl,
            Vulnerability::OpenDnsResolver,
            Vulnerability::CloudBypassBackdoor,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let classes = Vulnerability::all_classes();
        let mut ids: Vec<_> = classes.iter().map(|v| v.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), classes.len());
    }

    #[test]
    fn default_creds_are_admin_admin() {
        match Vulnerability::default_admin_admin() {
            Vulnerability::DefaultCredentials { user, pass } => {
                assert_eq!(user, "admin");
                assert_eq!(pass, "admin");
            }
            _ => panic!(),
        }
    }
}
