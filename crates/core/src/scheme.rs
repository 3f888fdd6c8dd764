//! The three resource-allocation schemes compared throughout the paper
//! (Table 2).

use std::fmt;

/// A machine-wide resource allocation scheme.
///
/// Every experiment in the paper runs each workload under all three
/// schemes; the claim of the paper is that [`Scheme::PIso`] matches
/// [`Scheme::Quota`] on isolation *and* [`Scheme::Smp`] on sharing.
///
/// # Examples
///
/// ```
/// use spu_core::Scheme;
/// assert!(Scheme::Smp.shares_idle_resources());
/// assert!(!Scheme::Smp.enforces_isolation());
/// assert!(Scheme::PIso.enforces_isolation() && Scheme::PIso.shares_idle_resources());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unconstrained sharing with no isolation — stock IRIX 5.3 behaviour
    /// ("good sharing").
    Smp,
    /// Fixed quota for each SPU with no sharing ("good isolation").
    Quota,
    /// Performance isolation: quota-grade isolation plus careful sharing
    /// of idle resources — the paper's contribution.
    #[default]
    PIso,
}

impl Scheme {
    /// All schemes, in the order the paper's figures present them.
    pub const ALL: [Scheme; 3] = [Scheme::Smp, Scheme::Quota, Scheme::PIso];

    /// Whether per-SPU resource limits are enforced at all.
    pub const fn enforces_isolation(self) -> bool {
        !matches!(self, Scheme::Smp)
    }

    /// Whether idle resources may flow between SPUs.
    pub const fn shares_idle_resources(self) -> bool {
        !matches!(self, Scheme::Quota)
    }

    /// Short label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            Scheme::Smp => "SMP",
            Scheme::Quota => "Quo",
            Scheme::PIso => "PIso",
        }
    }

    /// The scheme's [`SharingPolicy`](crate::manager::SharingPolicy)
    /// implementation — the unified entitle/lend/revoke/charge contract
    /// every resource subsystem drives.
    pub fn sharing(self) -> &'static dyn crate::manager::SharingPolicy {
        match self {
            Scheme::Smp => &crate::manager::SmpSharing,
            Scheme::Quota => &crate::manager::QuotaSharing,
            Scheme::PIso => &crate::manager::PIsoSharing,
        }
    }

    /// One-line description (Table 2).
    pub const fn description(self) -> &'static str {
        match self {
            Scheme::Smp => "Unconstrained sharing with no isolation. (Good sharing)",
            Scheme::Quota => "Fixed quota for each SPU with no sharing. (Good isolation)",
            Scheme::PIso => "Performance isolation with policies for isolation and sharing.",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties_match_table_2() {
        assert!(!Scheme::Smp.enforces_isolation());
        assert!(Scheme::Smp.shares_idle_resources());
        assert!(Scheme::Quota.enforces_isolation());
        assert!(!Scheme::Quota.shares_idle_resources());
        assert!(Scheme::PIso.enforces_isolation());
        assert!(Scheme::PIso.shares_idle_resources());
    }

    #[test]
    fn labels() {
        assert_eq!(Scheme::Smp.to_string(), "SMP");
        assert_eq!(Scheme::Quota.to_string(), "Quo");
        assert_eq!(Scheme::PIso.to_string(), "PIso");
    }

    #[test]
    fn all_lists_each_once() {
        assert_eq!(Scheme::ALL.len(), 3);
        assert_eq!(Scheme::ALL[0], Scheme::Smp);
        assert_eq!(Scheme::ALL[2], Scheme::PIso);
    }

    #[test]
    fn default_is_piso() {
        assert_eq!(Scheme::default(), Scheme::PIso);
    }
}
