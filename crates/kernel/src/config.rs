//! Machine and kernel configuration.
//!
//! Defaults follow the paper's experimental environment (§4.1): an SGI
//! CHALLENGE-class bus-based SMP with 300 MHz R4000 CPUs, HP 97560 disks,
//! a 10 ms clock tick, 30 ms CPU time slices, an 8% memory Reserve
//! Threshold, a 500 ms disk-bandwidth decay half-life, and 4 KB pages.

use std::fmt;

use event_sim::{FaultPlan, SimDuration};
use hp_disk::SchedulerKind;
use spu_core::{Scheme, ShedPolicy, SpuSet, SpuTree};

/// Bytes per page (IRIX on R4000 used 4 KB pages).
pub const PAGE_SIZE: u64 = 4096;
/// Disk sectors per page.
pub const SECTORS_PER_PAGE: u32 = (PAGE_SIZE / 512) as u32;

/// Configuration of one disk device.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskSetup {
    /// Seek-time scaling (§4.5 uses 0.5: "half the seek latency").
    pub seek_scale: f64,
    /// Request scheduler; `None` derives it from the machine scheme
    /// (SMP → Pos, Quota → Iso, PIso → Hybrid).
    pub scheduler: Option<SchedulerKind>,
}

impl Default for DiskSetup {
    fn default() -> Self {
        DiskSetup {
            seek_scale: 1.0,
            scheduler: None,
        }
    }
}

/// Kernel tuning knobs; the defaults are the paper's values where the
/// paper states them and small plausible costs elsewhere.
#[derive(Clone, Debug, PartialEq)]
pub struct Tuning {
    /// Clock tick: scheduling, loan revocation and priority decay happen
    /// here (§3.1: 10 ms, the maximum CPU revocation latency).
    pub tick: SimDuration,
    /// CPU time slice (§3.1: 30 ms "unless the process blocks before
    /// that").
    pub slice: SimDuration,
    /// Period of the memory sharing-policy evaluation (§3.2: "checked
    /// periodically").
    pub mem_policy_period: SimDuration,
    /// Reserve Threshold as a fraction of memory (§3.2: 8%).
    pub reserve_frac: f64,
    /// Disk bandwidth-count decay half-life (§3.3: 500 ms).
    pub bw_half_life: SimDuration,
    /// BW-difference threshold in sectors (§3.3).
    pub bw_threshold: f64,
    /// Write-behind daemon period (classic UNIX update daemon cadence).
    pub sync_period: SimDuration,
    /// Dirty-buffer high watermark as a fraction of total frames; writers
    /// block above it until the flusher drains below the low watermark.
    pub dirty_high_frac: f64,
    /// Dirty-buffer low watermark.
    pub dirty_low_frac: f64,
    /// Blocks of sequential read-ahead on a buffer-cache miss.
    pub readahead_blocks: u32,
    /// Read-ahead windows kept in flight for a sequential stream — the
    /// kernel keeps issuing prefetches until this many fills are
    /// outstanding ("multiple outstanding reads because of read-ahead",
    /// §4.5).
    pub prefetch_windows: u32,
    /// Fraction of frames charged to the kernel SPU at boot (kernel code,
    /// data, and static structures).
    pub kernel_mem_frac: f64,
    /// CPU cost of a pathname lookup while holding the inode lock.
    pub lookup_cost: SimDuration,
    /// Whether the root inode lock is multi-reader (the §3.4 fix) or a
    /// mutual-exclusion semaphore (stock IRIX 5.3).
    pub rw_inode_lock: bool,
    /// CPU cost of copying one 4 KB block between cache and user space.
    pub copy_cost: SimDuration,
    /// CPU cost of zero-filling a newly allocated page.
    pub zero_fill_cost: SimDuration,
    /// CPU cost of fork/exec bookkeeping.
    pub fork_cost: SimDuration,
    /// How often a computing process re-touches its working set.
    pub touch_interval: SimDuration,
    /// Revoke loaned CPUs immediately via inter-processor interrupt when
    /// a home process wakes, instead of waiting for the next clock tick
    /// (§3.1: "Another possibility would be to send an inter-processor
    /// interrupt (IPI) to get the processor back sooner. This might be
    /// needed to provide response time performance isolation guarantees
    /// to interactive processes.").
    pub ipi_revocation: bool,
    /// Maximum retries of a failed disk request before the error is
    /// surfaced to the process.
    pub io_max_retries: u32,
    /// First retry delay; doubles per attempt (capped exponential
    /// backoff).
    pub io_retry_base: SimDuration,
    /// Ceiling on the per-retry delay.
    pub io_retry_cap: SimDuration,
    /// Total retry budget measured from the first failure; once
    /// exceeded the request fails up even if retries remain.
    pub io_timeout: SimDuration,
    /// Per-SPU admission cap: how many tracked requests an SPU may have
    /// in service at once; arrivals beyond it wait in the SPU's
    /// admission queue. `0` disables admission control entirely — every
    /// request starts immediately, exactly the pre-admission kernel.
    pub admission_cap: u32,
    /// Admission-queue bound for shed policies that bound the queue
    /// (tail-drop, deadline-aware); ignored otherwise.
    pub queue_cap: u32,
    /// How the admission queue sheds load under overload.
    pub shed_policy: ShedPolicy,
    /// How long a request may wait in the admission queue before it is
    /// timed out (and retried, if budget remains). Zero disables
    /// queue-wait timeouts.
    pub request_timeout: SimDuration,
    /// Retries of a timed-out queued request before it is dropped.
    pub request_max_retries: u32,
    /// First re-submission delay after a queue-wait timeout; doubles
    /// per attempt (the same capped exponential backoff as I/O retry).
    pub request_retry_base: SimDuration,
    /// Ceiling on the re-submission delay.
    pub request_retry_cap: SimDuration,
    /// CoDel sojourn target: shedding starts once queue delay stays
    /// above this for a full interval.
    pub codel_target: SimDuration,
    /// CoDel observation interval.
    pub codel_interval: SimDuration,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            tick: SimDuration::from_millis(10),
            slice: SimDuration::from_millis(30),
            mem_policy_period: SimDuration::from_millis(100),
            reserve_frac: 0.08,
            bw_half_life: SimDuration::from_millis(500),
            bw_threshold: 64.0,
            sync_period: SimDuration::from_secs(1),
            dirty_high_frac: 0.10,
            dirty_low_frac: 0.05,
            readahead_blocks: 7,
            prefetch_windows: 4,
            kernel_mem_frac: 0.10,
            lookup_cost: SimDuration::from_micros(40),
            rw_inode_lock: true,
            copy_cost: SimDuration::from_micros(25),
            zero_fill_cost: SimDuration::from_micros(15),
            fork_cost: SimDuration::from_millis(2),
            touch_interval: SimDuration::from_millis(50),
            ipi_revocation: false,
            io_max_retries: 3,
            io_retry_base: SimDuration::from_millis(5),
            io_retry_cap: SimDuration::from_millis(80),
            io_timeout: SimDuration::from_secs(1),
            admission_cap: 0,
            queue_cap: 64,
            shed_policy: ShedPolicy::None,
            request_timeout: SimDuration::ZERO,
            request_max_retries: 3,
            request_retry_base: SimDuration::from_millis(5),
            request_retry_cap: SimDuration::from_millis(80),
            codel_target: SimDuration::from_millis(5),
            codel_interval: SimDuration::from_millis(100),
        }
    }
}

/// Full machine configuration for one simulation run.
///
/// # Examples
///
/// ```
/// use smp_kernel::MachineConfig;
/// use spu_core::Scheme;
///
/// // The Pmake8 machine: 8 CPUs, 44 MB, one fast disk per SPU.
/// let m = MachineConfig::builder()
///     .topology(8, 44, 8)
///     .scheme(Scheme::PIso)
///     .build()
///     .unwrap();
/// assert_eq!(m.cpus, 8);
/// assert_eq!(m.total_frames(), 44 * 256); // 4 KB pages
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of CPUs.
    pub cpus: usize,
    /// Main memory in megabytes.
    pub memory_mb: u64,
    /// Disk devices.
    pub disks: Vec<DiskSetup>,
    /// The allocation scheme under test.
    pub scheme: Scheme,
    /// Kernel tuning knobs.
    pub tuning: Tuning,
    /// Deterministic fault-injection schedule, if any. An empty plan
    /// behaves exactly like `None`.
    pub fault_plan: Option<FaultPlan>,
}

impl MachineConfig {
    /// Sets the allocation scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Replaces the tuning knobs.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Applies a disk seek scale to all disks (§4.5 uses 0.5).
    pub fn with_seek_scale(mut self, scale: f64) -> Self {
        for d in &mut self.disks {
            d.seek_scale = scale;
        }
        self
    }

    /// Forces a particular disk scheduler on all disks (the §4.5
    /// Pos/Iso/PIso comparison).
    pub fn with_disk_scheduler(mut self, kind: SchedulerKind) -> Self {
        for d in &mut self.disks {
            d.scheduler = Some(kind);
        }
        self
    }

    /// Total page frames.
    pub fn total_frames(&self) -> u64 {
        self.memory_mb * 1024 * 1024 / PAGE_SIZE
    }

    /// The disk scheduler a disk actually uses, deriving from the scheme
    /// where not overridden.
    pub fn disk_scheduler(&self, disk: usize) -> SchedulerKind {
        self.disks[disk].scheduler.unwrap_or(match self.scheme {
            Scheme::Smp => SchedulerKind::HeadPosition,
            Scheme::Quota => SchedulerKind::BlindFair,
            Scheme::PIso => SchedulerKind::Hybrid,
        })
    }

    /// Starts a validating builder (see [`MachineConfigBuilder`]) that
    /// returns typed [`ConfigError`]s instead of panicking.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder::default()
    }
}

/// A validation failure from [`MachineConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The machine needs at least one CPU.
    NoCpus,
    /// The machine needs a non-zero amount of memory.
    NoMemory,
    /// The machine needs at least one disk.
    NoDisks,
    /// A share vector was empty.
    EmptyShares {
        /// Which share vector ("cpu", "memory" or "disk").
        resource: &'static str,
    },
    /// A share vector contained a zero weight (an SPU entitled to
    /// nothing can never make progress).
    ZeroShare {
        /// Which share vector.
        resource: &'static str,
        /// Index of the offending weight.
        index: usize,
    },
    /// A per-resource share vector's length differed from the SPU count
    /// set by the base shares.
    ShareCountMismatch {
        /// Which share vector.
        resource: &'static str,
        /// SPU count implied by the base shares.
        expected: usize,
        /// Length of the offending vector.
        got: usize,
    },
    /// The disk seek scale must be finite and positive.
    BadSeekScale {
        /// The rejected value.
        value: f64,
    },
    /// A per-SPU override named an SPU index beyond the declared count.
    SpuIndexOutOfRange {
        /// Which share vector.
        resource: &'static str,
        /// The offending user-SPU index.
        index: usize,
        /// The declared user-SPU count.
        count: usize,
    },
    /// A tenant's service shares add up to more than the tenant's
    /// entitlement ceiling — children cannot subdivide more than the
    /// parent is entitled to.
    TenantOversubscribed {
        /// The oversubscribed tenant's name.
        tenant: String,
        /// The tenant's entitlement ceiling.
        ceiling: u32,
        /// The sum of the tenant's service weights.
        requested: u32,
    },
    /// A tenant was declared without any services — an empty subtree
    /// has no leaf SPUs to schedule.
    EmptyTenant {
        /// The offending tenant's name.
        tenant: String,
    },
    /// [`service`](MachineConfigBuilder::service) was called before any
    /// [`tenant`](MachineConfigBuilder::tenant) opened a subtree.
    ServiceOutsideTenant {
        /// The orphaned service's name.
        service: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCpus => write!(f, "machine needs at least one CPU"),
            ConfigError::NoMemory => write!(f, "machine needs a non-zero amount of memory"),
            ConfigError::NoDisks => write!(f, "machine needs at least one disk"),
            ConfigError::EmptyShares { resource } => {
                write!(f, "{resource} share vector is empty")
            }
            ConfigError::ZeroShare { resource, index } => {
                write!(
                    f,
                    "{resource} share vector has a zero weight at index {index}"
                )
            }
            ConfigError::ShareCountMismatch {
                resource,
                expected,
                got,
            } => write!(
                f,
                "{resource} share vector has {got} weights for {expected} SPUs"
            ),
            ConfigError::BadSeekScale { value } => {
                write!(
                    f,
                    "disk seek scale must be finite and positive, got {value}"
                )
            }
            ConfigError::SpuIndexOutOfRange {
                resource,
                index,
                count,
            } => write!(
                f,
                "{resource} share override names SPU {index} but only {count} SPUs are declared"
            ),
            ConfigError::TenantOversubscribed {
                tenant,
                ceiling,
                requested,
            } => write!(
                f,
                "tenant {tenant:?} oversubscribed: services request {requested} of ceiling {ceiling}"
            ),
            ConfigError::EmptyTenant { tenant } => {
                write!(f, "tenant {tenant:?} declares no services")
            }
            ConfigError::ServiceOutsideTenant { service } => {
                write!(f, "service {service:?} declared before any tenant")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`MachineConfig`] (and optionally the
/// [`SpuSet`] sharing contract), returning typed [`ConfigError`]s where
/// the panicking constructors would abort.
///
/// The topology-first surface describes the machine in one call and
/// generates SPU sets programmatically — the only way to sanely express
/// a 512-CPU / 1024-SPU consolidation host:
///
/// ```
/// use smp_kernel::MachineConfig;
/// use spu_core::Scheme;
///
/// let (cfg, spus) = MachineConfig::builder()
///     .topology(512, 2048, 16)
///     .scheme(Scheme::PIso)
///     .spus(1024, 1)          // 1024 tenants, equal shares...
///     .spu_share(0, 8)        // ...except tenant 0 pays for 8×
///     .build_with_spus()
///     .unwrap();
/// assert_eq!(cfg.cpus, 512);
/// assert_eq!(spus.user_count(), 1024);
/// ```
///
/// # Examples
///
/// ```
/// use smp_kernel::{ConfigError, MachineConfig};
/// use spu_core::Scheme;
///
/// let (cfg, spus) = MachineConfig::builder()
///     .topology(8, 44, 8)
///     .scheme(Scheme::PIso)
///     .shares(&[1, 1, 2])
///     .build_with_spus()
///     .unwrap();
/// assert_eq!(cfg.cpus, 8);
/// assert_eq!(spus.user_count(), 3);
///
/// let err = MachineConfig::builder()
///     .topology(2, 32, 1)
///     .shares(&[1, 0])
///     .build_with_spus()
///     .unwrap_err();
/// assert_eq!(err, ConfigError::ZeroShare { resource: "cpu", index: 1 });
/// ```
/// A pending tenant declaration: name, ceiling, and the
/// `(service name, weight)` pairs declared under it so far.
type TenantDecl = (String, u32, Vec<(String, u32)>);

#[derive(Clone, Debug, Default)]
pub struct MachineConfigBuilder {
    cpus: usize,
    memory_mb: u64,
    disk_count: usize,
    scheme: Scheme,
    tuning: Option<Tuning>,
    fault_plan: Option<FaultPlan>,
    seek_scale: Option<f64>,
    disk_scheduler: Option<SchedulerKind>,
    shares: Option<Vec<u32>>,
    memory_shares: Option<Vec<u32>>,
    disk_shares: Option<Vec<u32>>,
    spu_count: Option<(usize, u32)>,
    spu_overrides: Vec<(usize, u32)>,
    spu_mem_overrides: Vec<(usize, u32)>,
    spu_disk_overrides: Vec<(usize, u32)>,
    tenants: Vec<TenantDecl>,
    orphan_service: Option<String>,
    names: Option<Vec<String>>,
    tree: Option<SpuTree>,
}

impl MachineConfigBuilder {
    /// Sets the whole machine shape in one call: CPU count, memory in
    /// megabytes, and number of default disks. Equivalent to
    /// [`cpus`](Self::cpus) + [`memory_mb`](Self::memory_mb) +
    /// [`disk_count`](Self::disk_count).
    pub fn topology(self, cpus: usize, memory_mb: u64, disks: usize) -> Self {
        self.cpus(cpus).memory_mb(memory_mb).disk_count(disks)
    }

    /// Declares `count` user SPUs, each with `default_share` as its
    /// weight for every resource, to be refined with
    /// [`spu_share`](Self::spu_share) /
    /// [`spu_memory_share`](Self::spu_memory_share) /
    /// [`spu_disk_share`](Self::spu_disk_share). Generates the same
    /// [`SpuSet`] an explicit [`shares`](Self::shares) vector of
    /// `count` copies of `default_share` would, so existing configs are
    /// reproducible through either surface. Replaces any previously set
    /// share vector (last call wins).
    pub fn spus(mut self, count: usize, default_share: u32) -> Self {
        self.spu_count = Some((count, default_share));
        self.shares = None;
        self.tenants.clear();
        self
    }

    /// Opens a tenant subtree with an entitlement `ceiling` (in the
    /// same weight units as service shares). Subsequent
    /// [`service`](Self::service) calls add leaf SPUs to this tenant
    /// until the next `tenant` call opens another. Declaring tenants
    /// produces a hierarchical [`SpuSet`] (see [`SpuTree`]); it
    /// replaces any previously set [`shares`](Self::shares) vector or
    /// [`spus`](Self::spus) declaration, and vice versa (last surface
    /// wins).
    ///
    /// ```
    /// use smp_kernel::MachineConfig;
    /// use spu_core::{Scheme, SpuId};
    ///
    /// let (_, spus) = MachineConfig::builder()
    ///     .topology(4, 64, 2)
    ///     .scheme(Scheme::PIso)
    ///     .tenant("acme", 2)
    ///     .service("web", 1)
    ///     .service("batch", 1)
    ///     .tenant("globex", 2)
    ///     .service("api", 2)
    ///     .build_with_spus()
    ///     .unwrap();
    /// assert!(spus.is_hierarchical());
    /// assert_eq!(spus.user_count(), 3);
    /// assert_eq!(spus.path(SpuId::user(0)), "acme/web");
    /// ```
    pub fn tenant(mut self, name: &str, ceiling: u32) -> Self {
        self.tenants.push((name.to_string(), ceiling, Vec::new()));
        self.shares = None;
        self.spu_count = None;
        self
    }

    /// Adds a service (leaf SPU) with `weight` shares to the most
    /// recently opened [`tenant`](Self::tenant). The weights of a
    /// tenant's services may not add up to more than the tenant's
    /// ceiling ([`ConfigError::TenantOversubscribed`]); undersubscribing
    /// is fine, the slack stays with the tenant.
    pub fn service(mut self, name: &str, weight: u32) -> Self {
        match self.tenants.last_mut() {
            Some((_, _, services)) => services.push((name.to_string(), weight)),
            None => {
                if self.orphan_service.is_none() {
                    self.orphan_service = Some(name.to_string());
                }
            }
        }
        self
    }

    /// Overrides one SPU's entitlement weight (requires
    /// [`spus`](Self::spus)). Later overrides of the same index win.
    pub fn spu_share(mut self, index: usize, weight: u32) -> Self {
        self.spu_overrides.push((index, weight));
        self
    }

    /// Overrides one SPU's memory weight (requires [`spus`](Self::spus)).
    /// The first memory override materializes a memory share vector
    /// initialized from the CPU weights.
    pub fn spu_memory_share(mut self, index: usize, weight: u32) -> Self {
        self.spu_mem_overrides.push((index, weight));
        self
    }

    /// Overrides one SPU's disk-bandwidth weight (requires
    /// [`spus`](Self::spus)). The first disk override materializes a
    /// disk share vector initialized from the CPU weights.
    pub fn spu_disk_share(mut self, index: usize, weight: u32) -> Self {
        self.spu_disk_overrides.push((index, weight));
        self
    }

    /// Sets the CPU count.
    pub fn cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self
    }

    /// Sets main memory in megabytes.
    pub fn memory_mb(mut self, mb: u64) -> Self {
        self.memory_mb = mb;
        self
    }

    /// Sets the number of (default) disks.
    pub fn disk_count(mut self, disks: usize) -> Self {
        self.disk_count = disks;
        self
    }

    /// Sets the allocation scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replaces the tuning knobs.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = Some(tuning);
        self
    }

    /// Installs a fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Applies a seek scale to every disk.
    pub fn seek_scale(mut self, scale: f64) -> Self {
        self.seek_scale = Some(scale);
        self
    }

    /// Forces a disk scheduler on every disk.
    pub fn disk_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.disk_scheduler = Some(kind);
        self
    }

    /// Sets the per-SPU entitlement share vector (one weight per user
    /// SPU). Required for [`build_with_spus`](Self::build_with_spus)
    /// unless [`spus`](Self::spus) declared the set programmatically.
    /// Replaces a previous [`spus`](Self::spus) declaration (last call
    /// wins).
    pub fn shares(mut self, weights: &[u32]) -> Self {
        self.shares = Some(weights.to_vec());
        self.spu_count = None;
        self.tenants.clear();
        self
    }

    /// Overrides the memory share vector.
    pub fn memory_shares(mut self, weights: &[u32]) -> Self {
        self.memory_shares = Some(weights.to_vec());
        self
    }

    /// Overrides the disk-bandwidth share vector.
    pub fn disk_shares(mut self, weights: &[u32]) -> Self {
        self.disk_shares = Some(weights.to_vec());
        self
    }

    fn check_shares(
        resource: &'static str,
        weights: &[u32],
        expected: Option<usize>,
    ) -> Result<(), ConfigError> {
        if weights.is_empty() {
            return Err(ConfigError::EmptyShares { resource });
        }
        if let Some(expected) = expected {
            if weights.len() != expected {
                return Err(ConfigError::ShareCountMismatch {
                    resource,
                    expected,
                    got: weights.len(),
                });
            }
        }
        if let Some(index) = weights.iter().position(|&w| w == 0) {
            return Err(ConfigError::ZeroShare { resource, index });
        }
        Ok(())
    }

    /// Validates and builds the [`MachineConfig`].
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        self.build_inner().map(|(cfg, _)| cfg)
    }

    /// Validates and builds the machine *and* the SPU sharing contract
    /// from the share vectors; [`shares`](Self::shares) must have been
    /// set.
    pub fn build_with_spus(self) -> Result<(MachineConfig, SpuSet), ConfigError> {
        let (cfg, spus) = self.build_inner()?;
        Ok((
            cfg,
            spus.ok_or(ConfigError::EmptyShares { resource: "cpu" })?,
        ))
    }

    /// Applies `(index, weight)` overrides onto a base vector, checking
    /// every index against the declared SPU count.
    fn apply_overrides(
        resource: &'static str,
        base: &mut [u32],
        overrides: &[(usize, u32)],
    ) -> Result<(), ConfigError> {
        for &(index, weight) in overrides {
            if index >= base.len() {
                return Err(ConfigError::SpuIndexOutOfRange {
                    resource,
                    index,
                    count: base.len(),
                });
            }
            base[index] = weight;
        }
        Ok(())
    }

    /// Materializes a [`tenant`](Self::tenant)/[`service`](Self::service)
    /// declaration into a share vector, service names, and the
    /// [`SpuTree`] to hang off the built [`SpuSet`]. Every tree panic is
    /// pre-checked here so the builder reports typed errors instead.
    fn materialize_tenants(&mut self) -> Result<(), ConfigError> {
        if let Some(service) = &self.orphan_service {
            return Err(ConfigError::ServiceOutsideTenant {
                service: service.clone(),
            });
        }
        if self.tenants.is_empty() {
            return Ok(());
        }
        let mut weights: Vec<u32> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut tree_tenants: Vec<(String, u32, Vec<u32>)> = Vec::new();
        for (name, ceiling, services) in &self.tenants {
            if services.is_empty() {
                return Err(ConfigError::EmptyTenant {
                    tenant: name.clone(),
                });
            }
            let mut leaves = Vec::new();
            let mut requested: u64 = 0;
            for (service, weight) in services {
                if *weight == 0 {
                    return Err(ConfigError::ZeroShare {
                        resource: "cpu",
                        index: weights.len(),
                    });
                }
                requested += u64::from(*weight);
                leaves.push(weights.len() as u32);
                weights.push(*weight);
                names.push(service.clone());
            }
            if requested > u64::from(*ceiling) {
                return Err(ConfigError::TenantOversubscribed {
                    tenant: name.clone(),
                    ceiling: *ceiling,
                    requested: requested.min(u64::from(u32::MAX)) as u32,
                });
            }
            tree_tenants.push((name.clone(), *ceiling, leaves));
        }
        self.tree = Some(SpuTree::new(tree_tenants));
        self.names = Some(names);
        self.shares = Some(weights);
        Ok(())
    }

    /// Materializes the topology-declared SPU set into explicit share
    /// vectors, leaving an explicit [`shares`](Self::shares) builder
    /// untouched. Memory/disk vectors are only materialized when an
    /// override demands them, so a plain `spus(n, w)` builds a `SpuSet`
    /// equal to `shares(&[w; n])` and to [`SpuSet::equal_users`].
    fn materialize_topology(&mut self) -> Result<(), ConfigError> {
        let Some((count, default_share)) = self.spu_count else {
            if !self.spu_overrides.is_empty()
                || !self.spu_mem_overrides.is_empty()
                || !self.spu_disk_overrides.is_empty()
            {
                return Err(ConfigError::EmptyShares { resource: "cpu" });
            }
            return Ok(());
        };
        if count == 0 {
            return Err(ConfigError::EmptyShares { resource: "cpu" });
        }
        let mut weights = vec![default_share; count];
        Self::apply_overrides("cpu", &mut weights, &self.spu_overrides)?;
        if !self.spu_mem_overrides.is_empty() && self.memory_shares.is_none() {
            let mut mem = weights.clone();
            Self::apply_overrides("memory", &mut mem, &self.spu_mem_overrides)?;
            self.memory_shares = Some(mem);
        }
        if !self.spu_disk_overrides.is_empty() && self.disk_shares.is_none() {
            let mut disk = weights.clone();
            Self::apply_overrides("disk", &mut disk, &self.spu_disk_overrides)?;
            self.disk_shares = Some(disk);
        }
        self.shares = Some(weights);
        Ok(())
    }

    fn build_inner(mut self) -> Result<(MachineConfig, Option<SpuSet>), ConfigError> {
        if self.cpus == 0 {
            return Err(ConfigError::NoCpus);
        }
        if self.memory_mb == 0 {
            return Err(ConfigError::NoMemory);
        }
        if self.disk_count == 0 {
            return Err(ConfigError::NoDisks);
        }
        if let Some(scale) = self.seek_scale {
            if !(scale.is_finite() && scale > 0.0) {
                return Err(ConfigError::BadSeekScale { value: scale });
            }
        }
        self.materialize_tenants()?;
        self.materialize_topology()?;
        let spus = match &self.shares {
            Some(shares) => {
                Self::check_shares("cpu", shares, None)?;
                let mut set = SpuSet::with_weights(shares);
                if let Some(names) = &self.names {
                    for (i, name) in names.iter().enumerate() {
                        set = set.named(i, name);
                    }
                }
                if let Some(mem) = &self.memory_shares {
                    Self::check_shares("memory", mem, Some(shares.len()))?;
                    set = set.with_memory_weights(mem);
                }
                if let Some(disk) = &self.disk_shares {
                    Self::check_shares("disk", disk, Some(shares.len()))?;
                    set = set.with_disk_weights(disk);
                }
                if let Some(tree) = self.tree.take() {
                    set = set.with_tree(tree);
                }
                Some(set)
            }
            None => {
                if let Some(mem) = &self.memory_shares {
                    Self::check_shares("memory", mem, None)?;
                    return Err(ConfigError::EmptyShares { resource: "cpu" });
                }
                if let Some(disk) = &self.disk_shares {
                    Self::check_shares("disk", disk, None)?;
                    return Err(ConfigError::EmptyShares { resource: "cpu" });
                }
                None
            }
        };
        let mut cfg = MachineConfig {
            cpus: self.cpus,
            memory_mb: self.memory_mb,
            disks: vec![DiskSetup::default(); self.disk_count],
            scheme: self.scheme,
            tuning: self.tuning.unwrap_or_default(),
            fault_plan: self.fault_plan,
        };
        if let Some(scale) = self.seek_scale {
            cfg = cfg.with_seek_scale(scale);
        }
        if let Some(kind) = self.disk_scheduler {
            cfg = cfg.with_disk_scheduler(kind);
        }
        Ok((cfg, spus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_from_megabytes() {
        let m = MachineConfig::builder().topology(4, 16, 1).build().unwrap();
        assert_eq!(m.total_frames(), 4096);
    }

    #[test]
    fn paper_defaults() {
        let t = Tuning::default();
        assert_eq!(t.tick, SimDuration::from_millis(10));
        assert_eq!(t.slice, SimDuration::from_millis(30));
        assert_eq!(t.reserve_frac, 0.08);
        assert_eq!(t.bw_half_life, SimDuration::from_millis(500));
    }

    #[test]
    fn scheduler_derives_from_scheme() {
        let m = MachineConfig::builder().topology(2, 44, 1).build().unwrap();
        assert_eq!(
            m.clone().with_scheme(Scheme::Smp).disk_scheduler(0),
            SchedulerKind::HeadPosition
        );
        assert_eq!(
            m.clone().with_scheme(Scheme::Quota).disk_scheduler(0),
            SchedulerKind::BlindFair
        );
        assert_eq!(
            m.clone().with_scheme(Scheme::PIso).disk_scheduler(0),
            SchedulerKind::Hybrid
        );
    }

    #[test]
    fn scheduler_override_wins() {
        let m = MachineConfig::builder()
            .topology(2, 44, 2)
            .scheme(Scheme::Smp)
            .disk_scheduler(SchedulerKind::Hybrid)
            .build()
            .unwrap();
        assert_eq!(m.disk_scheduler(0), SchedulerKind::Hybrid);
        assert_eq!(m.disk_scheduler(1), SchedulerKind::Hybrid);
    }

    #[test]
    fn seek_scale_applies_to_all_disks() {
        let m = MachineConfig::builder()
            .topology(2, 44, 3)
            .seek_scale(0.5)
            .build()
            .unwrap();
        assert!(m.disks.iter().all(|d| d.seek_scale == 0.5));
    }

    #[test]
    fn builder_validates_machine_quantities() {
        assert_eq!(
            MachineConfig::builder().memory_mb(1).disk_count(1).build(),
            Err(ConfigError::NoCpus)
        );
        assert_eq!(
            MachineConfig::builder().cpus(1).disk_count(1).build(),
            Err(ConfigError::NoMemory)
        );
        assert_eq!(
            MachineConfig::builder().cpus(1).memory_mb(1).build(),
            Err(ConfigError::NoDisks)
        );
        assert_eq!(
            MachineConfig::builder()
                .cpus(1)
                .memory_mb(1)
                .disk_count(1)
                .seek_scale(0.0)
                .build(),
            Err(ConfigError::BadSeekScale { value: 0.0 })
        );
    }

    #[test]
    fn builder_validates_share_vectors() {
        let base = || MachineConfig::builder().cpus(4).memory_mb(16).disk_count(2);
        assert_eq!(
            base().shares(&[]).build_with_spus().unwrap_err(),
            ConfigError::EmptyShares { resource: "cpu" }
        );
        assert_eq!(
            base().shares(&[2, 0, 1]).build_with_spus().unwrap_err(),
            ConfigError::ZeroShare {
                resource: "cpu",
                index: 1
            }
        );
        assert_eq!(
            base()
                .shares(&[1, 1])
                .memory_shares(&[1, 2, 3])
                .build_with_spus()
                .unwrap_err(),
            ConfigError::ShareCountMismatch {
                resource: "memory",
                expected: 2,
                got: 3
            }
        );
        let (cfg, spus) = base()
            .scheme(Scheme::Quota)
            .shares(&[1, 3])
            .disk_shares(&[2, 2])
            .build_with_spus()
            .unwrap();
        assert_eq!(cfg.scheme, Scheme::Quota);
        assert_eq!(spus.user_count(), 2);
        assert_eq!(spus.weight(spu_core::SpuId::user(1)), 3);
    }

    #[test]
    fn builder_fills_every_config_field() {
        let built = MachineConfig::builder()
            .cpus(2)
            .memory_mb(44)
            .disk_count(1)
            .scheme(Scheme::PIso)
            .seek_scale(0.5)
            .disk_scheduler(SchedulerKind::Hybrid)
            .build()
            .unwrap();
        let by_hand = MachineConfig {
            cpus: 2,
            memory_mb: 44,
            disks: vec![DiskSetup {
                seek_scale: 0.5,
                scheduler: Some(SchedulerKind::Hybrid),
            }],
            scheme: Scheme::PIso,
            tuning: Tuning::default(),
            fault_plan: None,
        };
        assert_eq!(built, by_hand);
    }

    #[test]
    fn spus_matches_explicit_equal_shares() {
        let (cfg_a, spus_a) = MachineConfig::builder()
            .topology(8, 44, 8)
            .scheme(Scheme::PIso)
            .spus(8, 1)
            .build_with_spus()
            .unwrap();
        let (cfg_b, spus_b) = MachineConfig::builder()
            .topology(8, 44, 8)
            .scheme(Scheme::PIso)
            .shares(&[1; 8])
            .build_with_spus()
            .unwrap();
        assert_eq!(cfg_a, cfg_b);
        assert_eq!(spus_a, spus_b);
        assert_eq!(spus_a, SpuSet::equal_users(8));
    }

    #[test]
    fn spu_overrides_refine_topology_declaration() {
        let (_, spus) = MachineConfig::builder()
            .topology(4, 44, 2)
            .spus(4, 2)
            .spu_share(1, 5)
            .spu_share(1, 7) // later override of the same index wins
            .spu_memory_share(3, 1)
            .build_with_spus()
            .unwrap();
        assert_eq!(spus, {
            // CPU vector with the override applied; memory materialized
            // from CPU weights, then its own override.
            SpuSet::with_weights(&[2, 7, 2, 2]).with_memory_weights(&[2, 7, 2, 1])
        });
    }

    #[test]
    fn plain_spus_skips_memory_and_disk_vectors() {
        // No memory/disk overrides → no memory/disk vectors, so the set
        // stays equal to the classic equal-shares `SpuSet::equal_users`.
        let (_, spus) = MachineConfig::builder()
            .topology(4, 44, 2)
            .spus(3, 1)
            .build_with_spus()
            .unwrap();
        assert!(spus.memory_weights().is_none());
        assert!(spus.disk_weights().is_none());
    }

    #[test]
    fn spu_override_out_of_range_is_rejected() {
        let err = MachineConfig::builder()
            .topology(4, 44, 2)
            .spus(4, 1)
            .spu_share(4, 9)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::SpuIndexOutOfRange {
                resource: "cpu",
                index: 4,
                count: 4
            }
        );
        let err = MachineConfig::builder()
            .topology(4, 44, 2)
            .spus(2, 1)
            .spu_disk_share(3, 9)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::SpuIndexOutOfRange {
                resource: "disk",
                index: 3,
                count: 2
            }
        );
    }

    #[test]
    fn tenants_build_hierarchical_spu_set() {
        let (_, spus) = MachineConfig::builder()
            .topology(4, 64, 2)
            .scheme(Scheme::PIso)
            .tenant("acme", 3)
            .service("web", 1)
            .service("batch", 2)
            .tenant("globex", 2)
            .service("api", 2)
            .build_with_spus()
            .unwrap();
        assert!(spus.is_hierarchical());
        assert_eq!(spus.user_count(), 3);
        assert_eq!(spus.weight(spu_core::SpuId::user(1)), 2);
        assert_eq!(spus.path(spu_core::SpuId::user(0)), "acme/web");
        assert_eq!(spus.path(spu_core::SpuId::user(2)), "globex/api");
        assert_eq!(spus.tenant_of(spu_core::SpuId::user(1)), Some(0));
        assert_eq!(spus.tenant_of(spu_core::SpuId::user(2)), Some(1));
    }

    #[test]
    fn tenant_oversubscription_is_rejected_with_exact_message() {
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .tenant("acme", 2)
            .service("web", 2)
            .service("batch", 1)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TenantOversubscribed {
                tenant: "acme".to_string(),
                ceiling: 2,
                requested: 3,
            }
        );
        assert_eq!(
            err.to_string(),
            "tenant \"acme\" oversubscribed: services request 3 of ceiling 2"
        );
    }

    #[test]
    fn tenant_declaration_is_validated() {
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .tenant("acme", 2)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::EmptyTenant {
                tenant: "acme".to_string()
            }
        );
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .service("web", 1)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ServiceOutsideTenant {
                service: "web".to_string()
            }
        );
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .tenant("acme", 2)
            .service("web", 0)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ZeroShare {
                resource: "cpu",
                index: 0
            }
        );
    }

    #[test]
    fn tenants_and_flat_surfaces_last_call_wins() {
        // tenant() after shares() replaces the flat vector...
        let (_, spus) = MachineConfig::builder()
            .topology(2, 44, 1)
            .shares(&[9, 9])
            .tenant("acme", 1)
            .service("web", 1)
            .build_with_spus()
            .unwrap();
        assert!(spus.is_hierarchical());
        assert_eq!(spus.user_count(), 1);
        // ...and spus() after tenant() drops the hierarchy again.
        let (_, spus) = MachineConfig::builder()
            .topology(2, 44, 1)
            .tenant("acme", 1)
            .service("web", 1)
            .spus(3, 1)
            .build_with_spus()
            .unwrap();
        assert!(!spus.is_hierarchical());
        assert_eq!(spus, SpuSet::equal_users(3));
    }

    #[test]
    fn shares_and_spus_last_call_wins() {
        let (_, spus) = MachineConfig::builder()
            .topology(2, 44, 1)
            .shares(&[9, 9])
            .spus(3, 1)
            .build_with_spus()
            .unwrap();
        assert_eq!(spus, SpuSet::equal_users(3));
        let (_, spus) = MachineConfig::builder()
            .topology(2, 44, 1)
            .spus(3, 1)
            .shares(&[9, 9])
            .build_with_spus()
            .unwrap();
        assert_eq!(spus, SpuSet::with_weights(&[9, 9]));
    }

    #[test]
    fn spus_validates_through_share_pipeline() {
        // A zero default share is rejected by the same validation as an
        // explicit zero weight.
        let err = MachineConfig::builder()
            .topology(2, 44, 1)
            .spus(2, 0)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ZeroShare {
                resource: "cpu",
                index: 0
            }
        );
        // Overrides without a declared SPU set have nothing to refine.
        let err = MachineConfig::builder()
            .topology(2, 44, 1)
            .spu_share(0, 3)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyShares { resource: "cpu" });
    }
}
