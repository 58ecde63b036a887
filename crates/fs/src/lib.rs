//! # trail-fs: the file systems above the block layer
//!
//! The paper positions Trail *under* a file system (Figure 2) and argues
//! against alternatives at the file-system level (§2): the Log-structured
//! File System batches asynchronous writes beautifully but "cannot support
//! synchronous writes well because of the inability to batch, and all disk
//! writes still incur rotational latency", and it pays disk reads and
//! writes to clean segments, whereas Trail's FIFO track reclamation is
//! free. This crate makes those comparisons *structural* instead of
//! rhetorical:
//!
//! - [`ExtFs`] — an ext2-like file system (superblock, inode table, block
//!   bitmap, direct + single-indirect blocks). A synchronous write pays
//!   real metadata I/O: the data block(s), the inode sector, and any
//!   touched indirect block are separate synchronous writes — exactly the
//!   `O_SYNC`-on-ext2 cost the paper's `EXT2` rows measure. Mounted over
//!   [`trail_core::TrailDriver`], every one of those writes is absorbed by
//!   the log disk ("EXT2+Trail").
//! - [`Lfs`] — a log-structured file system: writes accumulate in a
//!   segment buffer and go to disk as large sequential segment writes; a
//!   synchronous write forces a *partial* segment out immediately; a
//!   [`cleaner`](Lfs::clean) reads live blocks out of cold segments and
//!   rewrites them — the garbage-collection I/O Trail avoids.
//!
//! Both implement [`FileSystem`] over any [`trail_core::BlockStack`], so the
//! same workload drives `EXT2`, `EXT2+Trail`, and `LFS` (the `fs_compare`
//! bench).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod extfs;
mod lfs;
mod vfs;

pub use extfs::ExtFs;
pub use lfs::{Lfs, LfsConfig, LfsStats};
pub use vfs::{FileHandle, FileSystem, FsError, FsStats, FS_BLOCK_SIZE};
