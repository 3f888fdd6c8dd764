//! Workload program scripts.
//!
//! A [`Program`] is the resource signature of an application: a sequence
//! of compute bursts, file reads/writes, memory allocation and touching,
//! forks, and barriers. The [`workloads`](../../workloads) crate builds
//! programs matching the paper's applications (pmake, Ocean, Flashlite,
//! VCS, file copy); the kernel interprets them.

use std::sync::Arc;

use event_sim::SimDuration;

use crate::fs::FileId;

/// Identifies a barrier shared by the processes of a parallel program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// One step of a program script.
#[derive(Clone, Debug)]
pub enum ProgramOp {
    /// Burn CPU for `duration`, re-touching the first `working_set` pages
    /// of the process's memory region every touch interval. Pages evicted
    /// by memory pressure fault back in from swap.
    Compute {
        /// Total CPU time of the burst.
        duration: SimDuration,
        /// Pages that must stay resident for the burst.
        working_set: u32,
    },
    /// Grow the process's anonymous region to at least `pages` pages
    /// (pages become resident lazily on touch).
    Alloc {
        /// New minimum region size in pages.
        pages: u32,
    },
    /// Read `bytes` from `file` starting at `offset` through the buffer
    /// cache (with read-ahead on misses).
    Read {
        /// File to read.
        file: FileId,
        /// Byte offset of the first byte.
        offset: u64,
        /// Bytes to read.
        bytes: u64,
    },
    /// Write `bytes` to `file` at `offset` through the buffer cache
    /// (write-behind; may block on the dirty-buffer watermark).
    Write {
        /// File to write.
        file: FileId,
        /// Byte offset of the first byte.
        offset: u64,
        /// Bytes to write.
        bytes: u64,
    },
    /// Synchronous single-sector metadata update of `file` (pmake's
    /// "many repeated writes of meta-data to a single sector", §4.5).
    MetaWrite {
        /// File whose metadata is updated.
        file: FileId,
    },
    /// Spawn a child process running `program` in the same SPU.
    Fork {
        /// The child's script.
        program: Arc<Program>,
    },
    /// Block until all forked children have exited.
    WaitChildren,
    /// Synchronize with the other `participants - 1` processes at this
    /// barrier (parallel applications like Ocean).
    Barrier {
        /// Barrier identity (must be unique per barrier per workload).
        id: BarrierId,
        /// Number of processes that must arrive before any proceeds.
        participants: u32,
    },
}

/// A complete program script with a display name.
///
/// # Examples
///
/// ```
/// use event_sim::SimDuration;
/// use smp_kernel::Program;
///
/// let p = Program::builder("hello")
///     .compute(SimDuration::from_millis(100), 16)
///     .build();
/// assert_eq!(p.name(), "hello");
/// assert_eq!(p.ops().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    ops: Vec<ProgramOp>,
}

impl Program {
    /// Starts building a program.
    pub fn builder(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            ops: Vec::new(),
        }
    }

    /// The program's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The script steps.
    pub fn ops(&self) -> &[ProgramOp] {
        &self.ops
    }
}

/// Builder for [`Program`] scripts.
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    name: String,
    ops: Vec<ProgramOp>,
}

impl ProgramBuilder {
    /// Appends a compute burst.
    pub fn compute(mut self, duration: SimDuration, working_set: u32) -> Self {
        self.ops.push(ProgramOp::Compute {
            duration,
            working_set,
        });
        self
    }

    /// Appends a region growth.
    pub fn alloc(mut self, pages: u32) -> Self {
        self.ops.push(ProgramOp::Alloc { pages });
        self
    }

    /// Appends a file read.
    pub fn read(mut self, file: FileId, offset: u64, bytes: u64) -> Self {
        self.ops.push(ProgramOp::Read {
            file,
            offset,
            bytes,
        });
        self
    }

    /// Appends a file write.
    pub fn write(mut self, file: FileId, offset: u64, bytes: u64) -> Self {
        self.ops.push(ProgramOp::Write {
            file,
            offset,
            bytes,
        });
        self
    }

    /// Appends a synchronous metadata write.
    pub fn meta_write(mut self, file: FileId) -> Self {
        self.ops.push(ProgramOp::MetaWrite { file });
        self
    }

    /// Appends a fork of `program`.
    pub fn fork(mut self, program: Arc<Program>) -> Self {
        self.ops.push(ProgramOp::Fork { program });
        self
    }

    /// Appends a wait for all children.
    pub fn wait_children(mut self) -> Self {
        self.ops.push(ProgramOp::WaitChildren);
        self
    }

    /// Appends a barrier arrival.
    pub fn barrier(mut self, id: BarrierId, participants: u32) -> Self {
        self.ops.push(ProgramOp::Barrier { id, participants });
        self
    }

    /// Appends an arbitrary op.
    pub fn op(mut self, op: ProgramOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Arc<Program> {
        Arc::new(Program {
            name: self.name,
            ops: self.ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_ops_in_order() {
        let inner = Program::builder("child")
            .compute(SimDuration::from_millis(5), 0)
            .build();
        let p = Program::builder("parent")
            .alloc(10)
            .compute(SimDuration::from_millis(1), 4)
            .read(FileId(0), 0, 4096)
            .write(FileId(1), 0, 8192)
            .meta_write(FileId(1))
            .fork(inner.clone())
            .fork(inner)
            .wait_children()
            .barrier(BarrierId(3), 4)
            .build();
        assert_eq!(p.name(), "parent");
        assert_eq!(p.ops().len(), 9);
        assert!(matches!(p.ops()[0], ProgramOp::Alloc { pages: 10 }));
        assert!(matches!(
            p.ops()[8],
            ProgramOp::Barrier {
                participants: 4,
                ..
            }
        ));
    }

    #[test]
    fn programs_are_shareable() {
        let p = Program::builder("x")
            .compute(SimDuration::from_millis(1), 0)
            .build();
        let q = Arc::clone(&p);
        assert_eq!(p.name(), q.name());
    }
}
