//! Security-context values.
//!
//! Each device `Dᵢ` carries a security context `Cᵢ` — the paper's
//! examples are `normal`, `suspicious` and `unpatched`. The context is
//! half of the system state (the other half is the environment), and it
//! is what a firewall rule cannot see: the *same* packet is benign when
//! the fire alarm is `normal` and must be blocked when it is
//! `suspicious` (Figure 3).

/// A device's security context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityContext {
    /// Behaving as expected.
    Normal,
    /// Suspicious activity observed (failed logins, signature hits,
    /// anomalous behaviour) but no confirmed takeover.
    Suspicious,
    /// Confirmed attacker control (backdoor use, unauthenticated
    /// actuation accepted).
    Compromised,
    /// Known-vulnerable and unpatchable; not (yet) under attack. The
    /// paper's argument is that most IoT devices live here permanently.
    Unpatched,
}

impl SecurityContext {
    /// All context values.
    pub const ALL: [SecurityContext; 4] = [
        SecurityContext::Normal,
        SecurityContext::Suspicious,
        SecurityContext::Compromised,
        SecurityContext::Unpatched,
    ];

    /// The stable lowercase name used in policies and reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SecurityContext::Normal => "normal",
            SecurityContext::Suspicious => "suspicious",
            SecurityContext::Compromised => "compromised",
            SecurityContext::Unpatched => "unpatched",
        }
    }

    /// Severity ordering used by escalation logic (higher = worse).
    /// `Unpatched` is a *latent* risk: worse than `normal`, better than
    /// observed suspicion.
    pub(crate) fn severity(self) -> u8 {
        match self {
            SecurityContext::Normal => 0,
            SecurityContext::Unpatched => 1,
            SecurityContext::Suspicious => 2,
            SecurityContext::Compromised => 3,
        }
    }

    /// The worse of two contexts.
    pub fn escalate(self, other: SecurityContext) -> SecurityContext {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_total_order() {
        let mut sevs: Vec<u8> = SecurityContext::ALL.iter().map(|c| c.severity()).collect();
        sevs.sort();
        sevs.dedup();
        assert_eq!(sevs.len(), 4);
    }

    #[test]
    fn escalate_takes_worse() {
        use SecurityContext::*;
        assert_eq!(Normal.escalate(Suspicious), Suspicious);
        assert_eq!(Suspicious.escalate(Normal), Suspicious);
        assert_eq!(Compromised.escalate(Unpatched), Compromised);
        assert_eq!(Unpatched.escalate(Unpatched), Unpatched);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = SecurityContext::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
