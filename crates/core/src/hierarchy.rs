//! The SPU entitlement tree — hierarchical isolation domains for
//! multi-tenant consolidation.
//!
//! The paper's SPUs form a flat partition of the machine, but its own
//! motivating scenario (server consolidation, §1) is naturally nested: a
//! *tenant* owns an entitlement and subdivides it among *services*. The
//! [`SpuTree`] overlays that nesting on the existing flat [`SpuSet`](crate::SpuSet):
//!
//! * **Leaves stay authoritative.** Every service is an ordinary user
//!   SPU whose weight lives in the `SpuSet` exactly as before; all flat
//!   entitlement math (CPU partition, memory split, ledger levels) is
//!   untouched. A depth-1 tree — every leaf its own tenant, or no tree
//!   at all — is therefore *bit-compatible* with today's flat SPUs.
//! * **Tenants are validated ceilings plus sharing scopes.** A tenant's
//!   ceiling bounds the sum of its children's weights (the builder
//!   rejects oversubscription), and the tenant boundary is where
//!   sibling-first lending, tenant-level revocation and parent-level
//!   brown-out apply: idle resources flow to a pressured sibling
//!   *inside* the tenant before escaping to other tenants.
//! * **Conservation is per subtree.** The auditor checks that each
//!   tenant's children collectively never out-use what the tenant's
//!   leaves were collectively allowed — the subtree conservation
//!   invariant of DESIGN.md §14.

use crate::spu::SpuId;

/// One tenant node: a named ceiling over a contiguous run of leaf
/// (service) SPUs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tenant {
    name: String,
    ceiling: u32,
    /// User indices of this tenant's service SPUs, ascending.
    leaves: Vec<u32>,
}

impl Tenant {
    /// The tenant's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's entitlement ceiling, in the same weight units as
    /// the leaf SPU weights.
    pub fn ceiling(&self) -> u32 {
        self.ceiling
    }

    /// User indices of the tenant's service SPUs.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves
    }
}

/// The tenant layer of the SPU hierarchy: every user SPU (leaf/service)
/// belongs to exactly one tenant.
///
/// # Examples
///
/// ```
/// use spu_core::{SpuId, SpuTree};
/// // Tenant "a" with services 0 and 1, tenant "b" with service 2.
/// let tree = SpuTree::new(vec![
///     ("a".into(), 4, vec![0, 1]),
///     ("b".into(), 2, vec![2]),
/// ]);
/// assert_eq!(tree.tenant_count(), 2);
/// assert_eq!(tree.tenant_of(SpuId::user(1)), Some(0));
/// assert!(tree.same_tenant(SpuId::user(0), SpuId::user(1)));
/// assert!(!tree.same_tenant(SpuId::user(1), SpuId::user(2)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpuTree {
    tenants: Vec<Tenant>,
    /// Tenant index per user SPU index (dense).
    tenant_of: Vec<u32>,
}

impl SpuTree {
    /// Builds a tree from `(name, ceiling, leaf user indices)` triples.
    ///
    /// # Panics
    ///
    /// Panics if there are no tenants, a tenant has no leaves or a zero
    /// ceiling, or the leaves do not cover user indices `0..n` exactly
    /// once — every service SPU must belong to exactly one tenant.
    pub fn new(tenants: Vec<(String, u32, Vec<u32>)>) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        let leaf_count: usize = tenants.iter().map(|(_, _, l)| l.len()).sum();
        let mut tenant_of = vec![u32::MAX; leaf_count];
        let tenants: Vec<Tenant> = tenants
            .into_iter()
            .enumerate()
            .map(|(t, (name, ceiling, leaves))| {
                assert!(!leaves.is_empty(), "tenant {name:?} has no services");
                assert!(ceiling > 0, "tenant {name:?} has a zero ceiling");
                for &leaf in &leaves {
                    let slot = tenant_of
                        .get_mut(leaf as usize)
                        .unwrap_or_else(|| panic!("leaf index {leaf} out of range"));
                    assert!(
                        *slot == u32::MAX,
                        "leaf index {leaf} assigned to two tenants"
                    );
                    *slot = t as u32;
                }
                Tenant {
                    name,
                    ceiling,
                    leaves,
                }
            })
            .collect();
        SpuTree { tenants, tenant_of }
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Number of leaf (service) SPUs across all tenants.
    pub fn leaf_count(&self) -> usize {
        self.tenant_of.len()
    }

    /// The tenants in declaration order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// One tenant by index.
    pub fn tenant(&self, t: usize) -> &Tenant {
        &self.tenants[t]
    }

    /// The tenant index a user SPU belongs to; `None` for the built-in
    /// kernel/shared SPUs.
    pub fn tenant_of(&self, spu: SpuId) -> Option<usize> {
        spu.user_index().map(|i| self.tenant_of[i] as usize)
    }

    /// Whether two SPUs are leaves of the same tenant. Built-ins are in
    /// no tenant, so they are never anyone's sibling.
    pub fn same_tenant(&self, a: SpuId, b: SpuId) -> bool {
        match (self.tenant_of(a), self.tenant_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The sibling leaves of `spu` (same tenant, `spu` excluded), in
    /// ascending user-index order.
    pub fn siblings(&self, spu: SpuId) -> impl Iterator<Item = SpuId> + '_ {
        let own = spu.user_index();
        let leaves: &[u32] = match self.tenant_of(spu) {
            Some(t) => &self.tenants[t].leaves,
            None => &[],
        };
        leaves
            .iter()
            .filter(move |&&l| Some(l as usize) != own)
            .map(|&l| SpuId::user(l))
    }

    /// The hierarchical path of a user SPU: `tenant/service` given the
    /// service's display name; built-ins have no path.
    pub fn path(&self, spu: SpuId, service_name: &str) -> Option<String> {
        self.tenant_of(spu)
            .map(|t| format!("{}/{}", self.tenants[t].name, service_name))
    }

    /// The first tenant whose children's weights oversubscribe its
    /// ceiling, as `(tenant index, ceiling, requested)` — the check
    /// behind the builder's typed oversubscription error.
    /// Undersubscription is fine: a tenant may hold headroom back.
    pub fn oversubscribed(&self, weights: &[u32]) -> Option<(usize, u32, u32)> {
        for (t, tenant) in self.tenants.iter().enumerate() {
            let requested: u32 = tenant
                .leaves
                .iter()
                .map(|&l| weights.get(l as usize).copied().unwrap_or(0))
                .sum();
            if requested > tenant.ceiling {
                return Some((t, tenant.ceiling, requested));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> SpuTree {
        SpuTree::new(vec![
            ("alpha".into(), 4, vec![0, 1]),
            ("beta".into(), 3, vec![2, 3, 4]),
        ])
    }

    #[test]
    fn tenant_membership_and_siblings() {
        let t = two_tenants();
        assert_eq!(t.tenant_count(), 2);
        assert_eq!(t.leaf_count(), 5);
        assert_eq!(t.tenant_of(SpuId::user(0)), Some(0));
        assert_eq!(t.tenant_of(SpuId::user(4)), Some(1));
        assert_eq!(t.tenant_of(SpuId::KERNEL), None);
        assert_eq!(t.tenant_of(SpuId::SHARED), None);
        let sibs: Vec<SpuId> = t.siblings(SpuId::user(3)).collect();
        assert_eq!(sibs, vec![SpuId::user(2), SpuId::user(4)]);
        assert_eq!(t.siblings(SpuId::KERNEL).count(), 0);
        assert!(t.same_tenant(SpuId::user(2), SpuId::user(4)));
        assert!(!t.same_tenant(SpuId::user(0), SpuId::user(2)));
        assert!(!t.same_tenant(SpuId::KERNEL, SpuId::user(0)));
        assert_eq!(t.tenant(0).name(), "alpha");
        assert_eq!(t.tenant(1).ceiling(), 3);
        assert_eq!(t.tenants()[1].leaves(), &[2, 3, 4]);
    }

    #[test]
    fn paths_join_tenant_and_service() {
        let t = two_tenants();
        assert_eq!(t.path(SpuId::user(2), "web").as_deref(), Some("beta/web"));
        assert_eq!(t.path(SpuId::SHARED, "x"), None);
    }

    #[test]
    fn oversubscription_detection() {
        let t = two_tenants();
        // alpha holds 4 and its children ask 2+2; beta holds 3, asks 3.
        assert_eq!(t.oversubscribed(&[2, 2, 1, 1, 1]), None);
        // beta's children ask 4 of its 3.
        assert_eq!(t.oversubscribed(&[2, 2, 2, 1, 1]), Some((1, 3, 4)));
        // Undersubscription (headroom) is allowed.
        assert_eq!(t.oversubscribed(&[1, 1, 1, 1, 1]), None);
    }

    #[test]
    #[should_panic(expected = "no services")]
    fn empty_tenant_panics() {
        SpuTree::new(vec![("a".into(), 1, vec![])]);
    }

    #[test]
    #[should_panic(expected = "zero ceiling")]
    fn zero_ceiling_panics() {
        SpuTree::new(vec![("a".into(), 0, vec![0])]);
    }

    #[test]
    #[should_panic(expected = "assigned to two tenants")]
    fn double_assignment_panics() {
        SpuTree::new(vec![("a".into(), 1, vec![0]), ("b".into(), 1, vec![0])]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leaf_gap_panics() {
        // Two leaves total but an index pointing past the dense range.
        SpuTree::new(vec![("a".into(), 2, vec![0, 2])]);
    }
}
