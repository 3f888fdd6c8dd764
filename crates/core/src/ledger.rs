//! Per-SPU accounting for a countable resource (physical memory pages).
//!
//! The kernel's page-allocation path is augmented to record the SPU id of
//! the requester and to keep per-SPU page-use counts (§2.2). The ledger
//! enforces isolation: "a page request from a process will be denied if
//! the SPU that owns the process has used its allocation of pages".

use crate::resource::ResourceLevels;
use crate::spu::SpuId;

/// Why a charge against an SPU was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargeError {
    /// The SPU has consumed its allowed level; it must release (evict)
    /// resources of its own or wait for the sharing policy to raise its
    /// allowed level.
    OverAllowed {
        /// SPU that was refused.
        spu: SpuId,
        /// Its allowed level at refusal time.
        allowed: u64,
        /// Its usage at refusal time.
        used: u64,
    },
    /// The whole machine is out of the resource (no free capacity),
    /// regardless of per-SPU levels.
    Exhausted,
}

impl std::fmt::Display for ChargeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChargeError::OverAllowed { spu, allowed, used } => {
                write!(f, "spu {spu} over allowed level ({used}/{allowed})")
            }
            ChargeError::Exhausted => write!(f, "resource exhausted machine-wide"),
        }
    }
}

impl std::error::Error for ChargeError {}

/// Tracks entitled/allowed/used levels of one countable resource for every
/// SPU, plus total capacity.
///
/// The **kernel SPU is never refused** (§2.2: "The kernel SPU has
/// unrestricted access to all resources") except when the machine is
/// genuinely exhausted. When `enforce` is false (the `SMP` scheme) user
/// SPUs are treated the same way — only machine-wide exhaustion fails.
///
/// # Examples
///
/// ```
/// use spu_core::{ResourceLedger, SpuId};
/// let mut ledger = ResourceLedger::new(100, 3); // kernel, shared, 1 user
/// ledger.set_entitled(SpuId::user(0), 50);
/// assert!(ledger.charge(SpuId::user(0), 50, true).is_ok());
/// assert!(ledger.charge(SpuId::user(0), 1, true).is_err()); // at limit
/// assert!(ledger.charge(SpuId::user(0), 1, false).is_ok()); // SMP mode
/// ```
#[derive(Clone, Debug)]
pub struct ResourceLedger {
    capacity: u64,
    levels: Vec<ResourceLevels>,
    /// Running sum of `levels[*].used`, so machine-wide exhaustion
    /// checks are O(1) instead of O(SPUs) — with thousands of SPUs the
    /// per-charge sum would dominate the allocation path.
    total: u64,
}

impl ResourceLedger {
    /// Creates a ledger for `spu_count` SPUs (dense [`SpuId::index`]
    /// addressing) over `capacity` total units. All levels start at zero;
    /// call [`set_entitled`](Self::set_entitled) to configure shares.
    pub fn new(capacity: u64, spu_count: usize) -> Self {
        ResourceLedger {
            capacity,
            levels: vec![ResourceLevels::default(); spu_count],
            total: 0,
        }
    }

    /// Total machine capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The levels record of one SPU.
    ///
    /// # Panics
    ///
    /// Panics if `spu` was not sized into this ledger.
    #[inline]
    pub fn levels(&self, spu: SpuId) -> &ResourceLevels {
        &self.levels[spu.index()]
    }

    /// Sets the entitled level of an SPU and aligns its allowed level to
    /// it (the no-sharing baseline).
    pub fn set_entitled(&mut self, spu: SpuId, entitled: u64) {
        let l = &mut self.levels[spu.index()];
        l.entitled = entitled;
        l.allowed = entitled;
    }

    /// Sets only the allowed level (the sharing policy's lever).
    pub fn set_allowed(&mut self, spu: SpuId, allowed: u64) {
        self.levels[spu.index()].allowed = allowed;
    }

    /// Units currently used by `spu`.
    #[inline]
    pub fn used(&self, spu: SpuId) -> u64 {
        self.levels[spu.index()].used
    }

    /// Units used across all SPUs.
    #[inline]
    pub fn total_used(&self) -> u64 {
        self.total
    }

    /// Unused machine capacity.
    pub fn free(&self) -> u64 {
        self.capacity - self.total
    }

    /// Whether a charge of `n` units against `spu` would succeed.
    #[inline]
    pub fn can_charge(&self, spu: SpuId, n: u64, enforce: bool) -> Result<(), ChargeError> {
        if self.free() < n {
            return Err(ChargeError::Exhausted);
        }
        if enforce && spu != SpuId::KERNEL {
            let l = &self.levels[spu.index()];
            if l.used + n > l.allowed {
                return Err(ChargeError::OverAllowed {
                    spu,
                    allowed: l.allowed,
                    used: l.used,
                });
            }
        }
        Ok(())
    }

    /// Charges `n` units to `spu`.
    ///
    /// # Errors
    ///
    /// Fails per [`can_charge`](Self::can_charge); on failure nothing is
    /// charged.
    pub fn charge(&mut self, spu: SpuId, n: u64, enforce: bool) -> Result<(), ChargeError> {
        self.can_charge(spu, n, enforce)?;
        self.levels[spu.index()].used += n;
        self.total += n;
        Ok(())
    }

    /// Releases `n` units previously charged to `spu`.
    ///
    /// # Panics
    ///
    /// Panics if `spu` has fewer than `n` units charged — releasing what
    /// was never charged is an accounting bug.
    pub fn release(&mut self, spu: SpuId, n: u64) {
        let l = &mut self.levels[spu.index()];
        assert!(
            l.used >= n,
            "releasing {n} units but {spu} only has {}",
            l.used
        );
        l.used -= n;
        self.total -= n;
    }

    /// Moves `n` charged units from one SPU to another without changing
    /// totals (used when a page is re-marked as shared, §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `from` has fewer than `n` units charged.
    pub fn transfer(&mut self, from: SpuId, to: SpuId, n: u64) {
        self.release(from, n);
        self.levels[to.index()].used += n;
        self.total += n;
    }

    /// Snapshot of every SPU's levels (dense index order).
    pub fn snapshot(&self) -> Vec<ResourceLevels> {
        self.levels.clone()
    }

    /// Debug invariant: total usage never exceeds capacity, and the
    /// cached running total matches the per-SPU levels.
    pub fn check_invariants(&self) {
        let summed: u64 = self.levels.iter().map(|l| l.used).sum();
        assert_eq!(
            summed, self.total,
            "cached total diverged from per-SPU levels"
        );
        assert!(
            self.total <= self.capacity,
            "ledger overcommitted: {} used of {}",
            self.total,
            self.capacity
        );
    }
}

/// One CPU's local accumulation of unfolded ledger deltas.
///
/// `deltas` is dense over SPU index; `touched` lists the SPUs with a
/// (possibly since-cancelled) recorded delta so folding clears in
/// O(touched) instead of O(SPUs).
#[derive(Clone, Debug)]
struct LedgerShard {
    deltas: Vec<i64>,
    touched: Vec<u32>,
    /// `stamp[spu] == epoch` marks membership in `touched`, making each
    /// record O(1); the epoch bumps at every fold instead of clearing
    /// the stamps.
    stamp: Vec<u32>,
    epoch: u32,
}

impl LedgerShard {
    fn new(spu_count: usize) -> Self {
        LedgerShard {
            deltas: vec![0; spu_count],
            touched: Vec::new(),
            stamp: vec![0; spu_count],
            epoch: 1,
        }
    }

    #[inline]
    fn record(&mut self, spu: usize, delta: i64) {
        if self.stamp[spu] != self.epoch {
            self.stamp[spu] = self.epoch;
            self.touched.push(spu as u32);
        }
        self.deltas[spu] += delta;
    }

    fn clear(&mut self) {
        self.touched.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
    }
}

/// A [`ResourceLedger`] sharded per CPU for datacenter-scale machines.
///
/// Hot-path charges and releases accumulate in a per-CPU shard (plus one
/// *detached* shard for work not bound to a CPU: boot-time kernel
/// charges, exit-path frees, daemon writes) and **fold** into the global
/// ledger at policy-pass boundaries. Between folds the global levels are
/// stale, so every decision surface — exhaustion checks, over-allowed
/// checks, victim selection — goes through the exact view
/// `used(spu) = global.used(spu) + pending(spu)`, which is O(1) per
/// query. Semantics are therefore *identical* to an unsharded ledger;
/// the sharding only changes where the mutations accumulate, mirroring
/// how a real scaled kernel would batch per-CPU counters to avoid a
/// contended global cacheline.
///
/// [`fold`](Self::fold) re-verifies conservation exactly: the per-CPU
/// shard deltas must sum to the per-SPU pending totals, and applying
/// them must reproduce the exact view. The [`LedgerAuditor`](crate::LedgerAuditor)
/// (crate::audit) then audits the folded global ledger, so the paper's
/// conservation invariant holds bit-for-bit at every audit point.
///
/// # Examples
///
/// ```
/// use spu_core::{ShardedLedger, SpuId};
/// let mut ledger = ShardedLedger::new(100, 3, 2); // 2 CPUs
/// ledger.set_entitled(SpuId::user(0), 50);
/// ledger.charge_on(0, SpuId::user(0), 30, true).unwrap();
/// ledger.charge_on(1, SpuId::user(0), 20, true).unwrap();
/// assert_eq!(ledger.used(SpuId::user(0)), 50); // exact before folding
/// assert!(ledger.charge_on(0, SpuId::user(0), 1, true).is_err());
/// ledger.fold();
/// assert_eq!(ledger.global().used(SpuId::user(0)), 50);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedLedger {
    global: ResourceLedger,
    /// One shard per CPU, plus a trailing detached shard.
    shards: Vec<LedgerShard>,
    /// Per-SPU net delta not yet folded into `global`.
    pending: Vec<i64>,
    /// Sum of `pending` (keeps `total_used`/`free` O(1)).
    pending_total: i64,
    folds: u64,
}

impl ShardedLedger {
    /// Creates a sharded ledger over `capacity` units for `spu_count`
    /// SPUs and `shard_count` CPU shards (a detached shard is added on
    /// top).
    pub fn new(capacity: u64, spu_count: usize, shard_count: usize) -> Self {
        ShardedLedger {
            global: ResourceLedger::new(capacity, spu_count),
            shards: vec![LedgerShard::new(spu_count); shard_count + 1],
            pending: vec![0; spu_count],
            pending_total: 0,
            folds: 0,
        }
    }

    /// The shard index for work not bound to any CPU.
    pub fn detached_shard(&self) -> usize {
        self.shards.len() - 1
    }

    /// Number of CPU shards (excluding the detached shard).
    pub fn shard_count(&self) -> usize {
        self.shards.len() - 1
    }

    /// Total machine capacity.
    pub fn capacity(&self) -> u64 {
        self.global.capacity()
    }

    /// How many folds have run (one per policy-pass boundary).
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Exact units currently used by `spu` (global plus pending).
    #[inline]
    pub fn used(&self, spu: SpuId) -> u64 {
        let exact = self.global.used(spu) as i64 + self.pending[spu.index()];
        debug_assert!(exact >= 0, "negative exact usage for {spu}");
        exact as u64
    }

    /// Exact units used across all SPUs.
    #[inline]
    pub fn total_used(&self) -> u64 {
        (self.global.total_used() as i64 + self.pending_total) as u64
    }

    /// Exact unused machine capacity.
    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity() - self.total_used()
    }

    /// Exact levels of one SPU (entitled/allowed from the global
    /// ledger, `used` from the exact view). Returned by value: the
    /// global record's `used` field may be stale between folds.
    pub fn levels(&self, spu: SpuId) -> ResourceLevels {
        let mut l = *self.global.levels(spu);
        l.used = self.used(spu);
        l
    }

    /// Sets the entitled level of an SPU, aligning its allowed level.
    pub fn set_entitled(&mut self, spu: SpuId, entitled: u64) {
        self.global.set_entitled(spu, entitled);
    }

    /// Sets only the allowed level (the sharing policy's lever).
    pub fn set_allowed(&mut self, spu: SpuId, allowed: u64) {
        self.global.set_allowed(spu, allowed);
    }

    /// Whether a charge of `n` units against `spu` would succeed —
    /// same contract as [`ResourceLedger::can_charge`], evaluated
    /// against the exact view.
    pub fn can_charge(&self, spu: SpuId, n: u64, enforce: bool) -> Result<(), ChargeError> {
        if self.free() < n {
            return Err(ChargeError::Exhausted);
        }
        if enforce && spu != SpuId::KERNEL {
            let allowed = self.global.levels(spu).allowed;
            let used = self.used(spu);
            if used + n > allowed {
                return Err(ChargeError::OverAllowed { spu, allowed, used });
            }
        }
        Ok(())
    }

    /// Charges `n` units to `spu`, accumulating on `shard`.
    ///
    /// # Errors
    ///
    /// Fails per [`can_charge`](Self::can_charge); on failure nothing
    /// is recorded.
    #[inline]
    pub fn charge_on(
        &mut self,
        shard: usize,
        spu: SpuId,
        n: u64,
        enforce: bool,
    ) -> Result<(), ChargeError> {
        self.can_charge(spu, n, enforce)?;
        self.record(shard, spu, n as i64);
        Ok(())
    }

    /// Releases `n` units previously charged to `spu`, accumulating on
    /// `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `spu` has fewer than `n` units charged under the exact
    /// view.
    #[inline]
    pub fn release_on(&mut self, shard: usize, spu: SpuId, n: u64) {
        let used = self.used(spu);
        assert!(used >= n, "releasing {n} units but {spu} only has {used}");
        self.record(shard, spu, -(n as i64));
    }

    /// Moves `n` charged units from one SPU to another without changing
    /// totals, accumulating on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `from` has fewer than `n` units charged.
    pub fn transfer_on(&mut self, shard: usize, from: SpuId, to: SpuId, n: u64) {
        self.release_on(shard, from, n);
        self.record(shard, to, n as i64);
    }

    #[inline]
    fn record(&mut self, shard: usize, spu: SpuId, delta: i64) {
        self.shards[shard].record(spu.index(), delta);
        self.pending[spu.index()] += delta;
        self.pending_total += delta;
    }

    /// Folds every shard's accumulated deltas into the global ledger —
    /// the policy-pass boundary. Verifies conservation exactly before
    /// applying: per SPU, the deltas recorded across shards must sum to
    /// the pending total, and the folded global usage must equal the
    /// exact view the hot path was deciding against.
    ///
    /// # Panics
    ///
    /// Panics if shard-local accounting diverged from the pending
    /// totals or folding would drive any SPU's usage negative — both
    /// are conservation bugs, the exact failure the auditor exists to
    /// catch.
    pub fn fold(&mut self) {
        let mut seen = vec![0i64; self.pending.len()];
        for shard in &mut self.shards {
            for &spu in &shard.touched {
                seen[spu as usize] += shard.deltas[spu as usize];
                shard.deltas[spu as usize] = 0;
            }
            shard.clear();
        }
        let mut seen_total = 0i64;
        for (i, (&s, &p)) in seen.iter().zip(&self.pending).enumerate() {
            assert_eq!(
                s, p,
                "conservation violated folding spu index {i}: shards sum to {s}, pending {p}"
            );
            seen_total += s;
            let l = &mut self.global.levels[i];
            let next = l.used as i64 + p;
            assert!(next >= 0, "folding spu index {i} to negative usage {next}");
            l.used = next as u64;
        }
        assert_eq!(seen_total, self.pending_total, "pending total diverged");
        self.global.total = (self.global.total as i64 + self.pending_total) as u64;
        self.pending.fill(0);
        self.pending_total = 0;
        self.folds += 1;
        debug_assert!(self.global.total_used() <= self.capacity());
    }

    /// The global ledger. Exact only when every shard has been folded
    /// (`pending` empty) — callers audit or sample through this *after*
    /// [`fold`](Self::fold).
    pub fn global(&self) -> &ResourceLedger {
        &self.global
    }

    /// Folds and returns the (now exact) global ledger.
    pub fn folded(&mut self) -> &ResourceLedger {
        self.fold();
        &self.global
    }

    /// Exact snapshot of every SPU's levels (dense index order).
    pub fn snapshot(&self) -> Vec<ResourceLevels> {
        (0..self.pending.len())
            .map(|i| {
                let mut l = self.global.levels[i];
                l.used = (l.used as i64 + self.pending[i]) as u64;
                l
            })
            .collect()
    }

    /// Debug invariant: the exact view never overcommits and the
    /// pending totals are internally consistent.
    pub fn check_invariants(&self) {
        let pending_sum: i64 = self.pending.iter().sum();
        assert_eq!(pending_sum, self.pending_total, "pending total diverged");
        assert!(
            self.total_used() <= self.capacity(),
            "sharded ledger overcommitted: {} used of {}",
            self.total_used(),
            self.capacity()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> ResourceLedger {
        // kernel, shared, two users
        let mut l = ResourceLedger::new(100, 4);
        l.set_entitled(SpuId::user(0), 40);
        l.set_entitled(SpuId::user(1), 40);
        l
    }

    #[test]
    fn charge_within_allowed_succeeds() {
        let mut l = ledger();
        assert!(l.charge(SpuId::user(0), 40, true).is_ok());
        assert_eq!(l.used(SpuId::user(0)), 40);
        assert_eq!(l.free(), 60);
    }

    #[test]
    fn charge_over_allowed_fails_when_enforced() {
        let mut l = ledger();
        l.charge(SpuId::user(0), 40, true).unwrap();
        let err = l.charge(SpuId::user(0), 1, true).unwrap_err();
        assert!(matches!(
            err,
            ChargeError::OverAllowed {
                used: 40,
                allowed: 40,
                ..
            }
        ));
        // Nothing was charged by the failed call.
        assert_eq!(l.used(SpuId::user(0)), 40);
    }

    #[test]
    fn charge_over_allowed_succeeds_unenforced() {
        let mut l = ledger();
        assert!(l.charge(SpuId::user(0), 90, false).is_ok());
    }

    #[test]
    fn kernel_spu_is_unrestricted() {
        let mut l = ledger();
        // Kernel has entitled 0 but may still charge when enforcing.
        assert!(l.charge(SpuId::KERNEL, 70, true).is_ok());
    }

    #[test]
    fn exhaustion_beats_everything() {
        let mut l = ledger();
        l.charge(SpuId::KERNEL, 100, true).unwrap();
        assert_eq!(
            l.charge(SpuId::KERNEL, 1, true),
            Err(ChargeError::Exhausted)
        );
        assert_eq!(
            l.charge(SpuId::user(0), 1, false),
            Err(ChargeError::Exhausted)
        );
    }

    #[test]
    fn raising_allowed_lends_capacity() {
        let mut l = ledger();
        l.charge(SpuId::user(0), 40, true).unwrap();
        l.set_allowed(SpuId::user(0), 60); // lend 20 idle units in
        assert!(l.charge(SpuId::user(0), 20, true).is_ok());
        assert_eq!(l.levels(SpuId::user(0)).borrowed(), 20);
    }

    #[test]
    fn release_and_transfer() {
        let mut l = ledger();
        l.charge(SpuId::user(0), 10, true).unwrap();
        l.release(SpuId::user(0), 4);
        assert_eq!(l.used(SpuId::user(0)), 6);
        l.transfer(SpuId::user(0), SpuId::SHARED, 6);
        assert_eq!(l.used(SpuId::user(0)), 0);
        assert_eq!(l.used(SpuId::SHARED), 6);
        assert_eq!(l.total_used(), 6);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut l = ledger();
        l.release(SpuId::user(0), 1);
    }

    fn sharded() -> ShardedLedger {
        // kernel, shared, two users; 4 CPU shards
        let mut l = ShardedLedger::new(100, 4, 4);
        l.set_entitled(SpuId::user(0), 40);
        l.set_entitled(SpuId::user(1), 40);
        l
    }

    #[test]
    fn sharded_exact_view_before_fold() {
        let mut l = sharded();
        l.charge_on(0, SpuId::user(0), 10, true).unwrap();
        l.charge_on(3, SpuId::user(0), 30, true).unwrap();
        assert_eq!(l.used(SpuId::user(0)), 40);
        assert_eq!(l.global().used(SpuId::user(0)), 0); // not yet folded
        let err = l.charge_on(1, SpuId::user(0), 1, true).unwrap_err();
        assert!(matches!(
            err,
            ChargeError::OverAllowed {
                used: 40,
                allowed: 40,
                ..
            }
        ));
        assert_eq!(l.levels(SpuId::user(0)).used, 40);
        assert_eq!(l.free(), 60);
        l.check_invariants();
    }

    #[test]
    fn sharded_fold_reconciles_global() {
        let mut l = sharded();
        l.charge_on(0, SpuId::user(0), 10, true).unwrap();
        l.charge_on(1, SpuId::user(1), 5, true).unwrap();
        l.release_on(2, SpuId::user(0), 4);
        let detached = l.detached_shard();
        l.charge_on(detached, SpuId::KERNEL, 7, true).unwrap();
        l.fold();
        assert_eq!(l.folds(), 1);
        assert_eq!(l.global().used(SpuId::user(0)), 6);
        assert_eq!(l.global().used(SpuId::user(1)), 5);
        assert_eq!(l.global().used(SpuId::KERNEL), 7);
        assert_eq!(l.global().total_used(), 18);
        assert_eq!(l.total_used(), 18);
        l.global().check_invariants();
        // Folding again with nothing pending is a no-op.
        l.fold();
        assert_eq!(l.global().total_used(), 18);
    }

    #[test]
    fn sharded_exhaustion_counts_pending() {
        let mut l = sharded();
        l.charge_on(0, SpuId::KERNEL, 60, true).unwrap();
        l.charge_on(1, SpuId::KERNEL, 40, true).unwrap();
        assert_eq!(
            l.charge_on(2, SpuId::KERNEL, 1, true),
            Err(ChargeError::Exhausted)
        );
    }

    #[test]
    fn sharded_transfer_keeps_totals() {
        let mut l = sharded();
        l.charge_on(0, SpuId::user(0), 10, true).unwrap();
        l.transfer_on(1, SpuId::user(0), SpuId::SHARED, 10);
        assert_eq!(l.used(SpuId::user(0)), 0);
        assert_eq!(l.used(SpuId::SHARED), 10);
        assert_eq!(l.total_used(), 10);
        let snap = l.snapshot();
        assert_eq!(snap[SpuId::SHARED.index()].used, 10);
        l.fold();
        assert_eq!(l.global().used(SpuId::SHARED), 10);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn sharded_over_release_panics_exactly() {
        let mut l = sharded();
        l.charge_on(0, SpuId::user(0), 3, true).unwrap();
        // Exact view across shards: releasing 4 is an accounting bug
        // even though shard 1 never saw the charge.
        l.release_on(1, SpuId::user(0), 4);
    }

    #[test]
    fn sharded_folded_returns_exact_global() {
        let mut l = sharded();
        l.charge_on(2, SpuId::user(1), 8, true).unwrap();
        assert_eq!(l.folded().used(SpuId::user(1)), 8);
    }

    #[test]
    fn display_of_errors() {
        let e = ChargeError::OverAllowed {
            spu: SpuId::user(0),
            allowed: 10,
            used: 10,
        };
        assert!(e.to_string().contains("over allowed"));
        assert!(ChargeError::Exhausted.to_string().contains("exhausted"));
    }
}
