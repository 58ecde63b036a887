//! # trail-db: a Berkeley-DB-like transactional storage engine
//!
//! The database substrate of the Trail reproduction (Chiueh & Huang,
//! *Track-Based Disk Logging*, DSN 2002). The paper's headline application
//! result (Tables 2 and 3) runs TPC-C on Berkeley DB with its log file
//! opened `O_SYNC`; what matters for the experiment is the engine's **I/O
//! pattern** — synchronous commit-time log forces, cache-miss page reads,
//! and background dirty-page write-back — all of which this crate
//! reproduces over a pluggable storage stack:
//!
//! - [`BlockStack`], implemented by [`trail_core::MultiTrail`] (Trail
//!   over one log disk or several) and [`StandardStack`] — the same
//!   engine binary-compares `EXT2+Trail`, `EXT2`, and `EXT2+GC`;
//! - [`Page`] / [`BufferPool`] — 4-KiB slotted pages under a clock cache;
//! - [`Wal`] with [`FlushPolicy::EveryCommit`] and
//!   [`FlushPolicy::GroupCommit`] — Table 3 counts the group commits;
//!   every force writes the chunk *and* the file's inode block, the
//!   `O_SYNC`-on-ext2 behavior that makes baseline logging expensive;
//! - [`Database`] — op-list transactions with response time measured to
//!   durability;
//! - [`StorageService`] — the serving layer's adapter over a stack:
//!   clamped addressing, stream-tagged `get`/`put`, and per-stream
//!   `commit` durability barriers;
//! - [`scan_wal`] / [`replay_committed`] — redo recovery, composable with
//!   Trail's own block-level recovery underneath.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod page;
mod recovery;
mod service;
mod stack;
mod wal;

pub use cache::{BufferPool, CacheStats};
pub use engine::{Database, DbConfig, DbStats, Op, TableId, TxnResult, TxnSpec};
pub use page::{Page, PageId, Rid, PAGE_SIZE, SECTORS_PER_PAGE};
pub use recovery::{
    read_blocking, recover_committed, replay_committed, scan_wal, RecoveredImage, WalRecoveryReport,
};
pub use service::StorageService;
pub use stack::{BlockStack, SharedStack, StandardStack};
pub use wal::{FlushJob, FlushPolicy, PendingCommit, Wal, WalRecord, WalStats, CHUNK_MAGIC};
