//! An ext2-like file system: inode table, direct + single-indirect block
//! pointers, and a flat root directory.
//!
//! The point of this module is the **synchronous-write cost structure**:
//! an `O_SYNC` write issues the data block(s), then the inode sector, then
//! any touched indirect block, then a dirty directory block — each a
//! separate synchronous write, each paying seek + rotation on the standard
//! stack and almost nothing on Trail. That is the "EXT2" vs "EXT2+Trail"
//! difference of the paper's Table 2, produced structurally.

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_core::{read_blocking, write_blocking, BlockStack};
use trail_sim::{Completion, Delivered, FastMap, Simulator};

use crate::vfs::{FileHandle, FileSystem, FsError, FsStats, FS_BLOCK_SIZE};

const MAGIC: u32 = 0x4558_5446; // "EXTF"
const SECTORS_PER_BLOCK: u64 = (FS_BLOCK_SIZE / 512) as u64;
/// Maximum files.
const N_INODES: usize = 64;
/// Directory entry: 24-byte name + u32 inode + used flag.
const NAME_LEN: usize = 24;
const DIRECT: usize = 10;
/// Pointers per indirect block.
const PER_INDIRECT: usize = FS_BLOCK_SIZE / 4;
/// Inode table starts at sector 8 (after the superblock block).
const INODE_START_SECTOR: u64 = SECTORS_PER_BLOCK;
/// First data block, leaving room for superblock + inode table.
const DATA_START_BLOCK: u32 = 16;

#[derive(Clone, Default)]
struct Inode {
    used: bool,
    size: u64,
    direct: [u32; DIRECT],
    indirect: u32,
    /// Cached indirect pointers (loaded at mount / built at allocation).
    indirect_map: Vec<u32>,
}

impl Inode {
    fn encode(&self) -> [u8; 512] {
        let mut b = [0u8; 512];
        b[0] = u8::from(self.used);
        b[1..9].copy_from_slice(&self.size.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[9 + i * 4..13 + i * 4].copy_from_slice(&d.to_le_bytes());
        }
        b[9 + DIRECT * 4..13 + DIRECT * 4].copy_from_slice(&self.indirect.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Inode {
        let mut direct = [0u32; DIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u32::from_le_bytes(b[9 + i * 4..13 + i * 4].try_into().expect("len"));
        }
        Inode {
            used: b[0] != 0,
            size: u64::from_le_bytes(b[1..9].try_into().expect("len")),
            direct,
            indirect: u32::from_le_bytes(
                b[9 + DIRECT * 4..13 + DIRECT * 4].try_into().expect("len"),
            ),
            indirect_map: Vec::new(),
        }
    }

    /// The data block holding file block index `i`, or 0 if unallocated.
    fn block_at(&self, i: usize) -> u32 {
        if i < DIRECT {
            self.direct[i]
        } else {
            self.indirect_map.get(i - DIRECT).copied().unwrap_or(0)
        }
    }
}

struct Inner {
    stack: Rc<dyn BlockStack>,
    dev: usize,
    dir: FastMap<String, u32>,
    inodes: Vec<Inode>,
    next_block: u32,
    free_blocks: Vec<u32>,
    capacity_blocks: u32,
    dir_dirty: bool,
    pending: usize,
    stats: FsStats,
}

/// The ext2-like file system. Clones share the mount.
///
/// # Examples
///
/// See the `filesystem` integration tests and the `fs_compare` bench; a
/// mount needs a simulated stack, which makes inline examples long.
#[derive(Clone)]
pub struct ExtFs {
    inner: Rc<RefCell<Inner>>,
}

impl ExtFs {
    /// Formats device `dev` (writes an empty superblock) and mounts it.
    ///
    /// Runs as an offline tool (drains the event queue).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn format(
        sim: &mut Simulator,
        stack: Rc<dyn BlockStack>,
        dev: usize,
        capacity_blocks: u32,
    ) -> Result<ExtFs, FsError> {
        let fs = ExtFs {
            inner: Rc::new(RefCell::new(Inner {
                stack: Rc::clone(&stack),
                dev,
                dir: FastMap::default(),
                inodes: vec![Inode::default(); N_INODES],
                next_block: DATA_START_BLOCK,
                free_blocks: Vec::new(),
                capacity_blocks,
                dir_dirty: false,
                pending: 0,
                stats: FsStats::default(),
            })),
        };
        let dir_block = encode_directory(&fs.inner.borrow());
        write_blocking(sim, stack.as_ref(), dev, 0, dir_block)?;
        Ok(fs)
    }

    /// Mounts a previously formatted device: reads the superblock, the
    /// directory, and the inode table (blocking).
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidArgument`] if the superblock is not an ExtFs one.
    pub fn mount(
        sim: &mut Simulator,
        stack: Rc<dyn BlockStack>,
        dev: usize,
        capacity_blocks: u32,
    ) -> Result<ExtFs, FsError> {
        let sb = read_blocking(sim, stack.as_ref(), dev, 0, SECTORS_PER_BLOCK as u32)
            .map_err(FsError::Storage)?;
        if u32::from_le_bytes(sb[0..4].try_into().expect("len")) != MAGIC {
            return Err(FsError::InvalidArgument);
        }
        let mut dir = FastMap::default();
        for e in 0..N_INODES {
            let off = 8 + e * (NAME_LEN + 8);
            if sb[off] == 0 {
                continue;
            }
            let name_end = sb[off + 1..off + 1 + NAME_LEN]
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(NAME_LEN);
            let name = String::from_utf8_lossy(&sb[off + 1..off + 1 + name_end]).into_owned();
            let ino = u32::from_le_bytes(
                sb[off + 1 + NAME_LEN..off + 5 + NAME_LEN]
                    .try_into()
                    .expect("len"),
            );
            dir.insert(name, ino);
        }
        // Inode table.
        let itable = read_blocking(
            sim,
            stack.as_ref(),
            dev,
            INODE_START_SECTOR,
            N_INODES as u32,
        )
        .map_err(FsError::Storage)?;
        let mut inodes: Vec<Inode> = itable.chunks_exact(512).map(Inode::decode).collect();
        // Load indirect maps and rebuild the allocation frontier.
        let mut max_block = DATA_START_BLOCK - 1;
        for ino in inodes.iter_mut() {
            if !ino.used {
                continue;
            }
            if ino.indirect != 0 {
                max_block = max_block.max(ino.indirect);
                let raw = read_blocking(
                    sim,
                    stack.as_ref(),
                    dev,
                    u64::from(ino.indirect) * SECTORS_PER_BLOCK,
                    SECTORS_PER_BLOCK as u32,
                )
                .map_err(FsError::Storage)?;
                ino.indirect_map = raw
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("len")))
                    .take_while(|&b| b != 0)
                    .collect();
            }
            for i in 0.. {
                let b = ino.block_at(i);
                if b == 0 {
                    break;
                }
                max_block = max_block.max(b);
            }
        }
        Ok(ExtFs {
            inner: Rc::new(RefCell::new(Inner {
                stack,
                dev,
                dir,
                inodes,
                next_block: max_block + 1,
                free_blocks: Vec::new(),
                capacity_blocks,
                dir_dirty: false,
                pending: 0,
                stats: FsStats::default(),
            })),
        })
    }

    /// Persists the directory and every inode (blocking; used at clean
    /// unmount and in tests before remounting).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn flush_meta(&self, sim: &mut Simulator) -> Result<(), FsError> {
        let (stack, dev, dir_block, inode_writes) = {
            let mut d = self.inner.borrow_mut();
            let dir_block = encode_directory(&d);
            let inode_writes: Vec<(u64, Vec<u8>)> = d
                .inodes
                .iter()
                .enumerate()
                .map(|(i, ino)| (INODE_START_SECTOR + i as u64, ino.encode().to_vec()))
                .collect();
            d.dir_dirty = false;
            (Rc::clone(&d.stack), d.dev, dir_block, inode_writes)
        };
        write_blocking(sim, stack.as_ref(), dev, 0, dir_block)?;
        for (lba, bytes) in inode_writes {
            write_blocking(sim, stack.as_ref(), dev, lba, bytes)?;
        }
        // Indirect blocks.
        let indirect_writes: Vec<(u64, Vec<u8>)> = {
            let d = self.inner.borrow();
            d.inodes
                .iter()
                .filter(|i| i.used && i.indirect != 0)
                .map(|i| {
                    (
                        u64::from(i.indirect) * SECTORS_PER_BLOCK,
                        encode_indirect(&i.indirect_map),
                    )
                })
                .collect()
        };
        for (lba, bytes) in indirect_writes {
            write_blocking(sim, stack.as_ref(), dev, lba, bytes)?;
        }
        Ok(())
    }

    /// Allocates one data block.
    fn alloc_block(d: &mut Inner) -> Result<u32, FsError> {
        if let Some(b) = d.free_blocks.pop() {
            return Ok(b);
        }
        if d.next_block >= d.capacity_blocks {
            return Err(FsError::NoSpace);
        }
        let b = d.next_block;
        d.next_block += 1;
        Ok(b)
    }
}

fn encode_indirect(map: &[u32]) -> Vec<u8> {
    let mut b = vec![0u8; FS_BLOCK_SIZE];
    for (i, &blk) in map.iter().enumerate().take(PER_INDIRECT) {
        b[i * 4..i * 4 + 4].copy_from_slice(&blk.to_le_bytes());
    }
    b
}

impl FileSystem for ExtFs {
    fn create(&self, name: &str) -> Result<FileHandle, FsError> {
        let mut d = self.inner.borrow_mut();
        if name.is_empty() || name.len() > NAME_LEN {
            return Err(FsError::InvalidArgument);
        }
        if d.dir.contains_key(name) {
            return Err(FsError::FileExists);
        }
        if d.dir.len() >= N_INODES {
            return Err(FsError::NoSpace);
        }
        let ino = d
            .inodes
            .iter()
            .position(|i| !i.used)
            .ok_or(FsError::NoSpace)? as u32;
        d.inodes[ino as usize] = Inode {
            used: true,
            ..Inode::default()
        };
        d.dir.insert(name.to_string(), ino);
        d.dir_dirty = true;
        Ok(FileHandle(ino))
    }

    fn open(&self, name: &str) -> Result<FileHandle, FsError> {
        let d = self.inner.borrow();
        d.dir
            .get(name)
            .map(|&i| FileHandle(i))
            .ok_or(FsError::NoSuchFile)
    }

    fn delete(&self, name: &str) -> Result<(), FsError> {
        let mut d = self.inner.borrow_mut();
        let ino = *d.dir.get(name).ok_or(FsError::NoSuchFile)?;
        d.dir.remove(name);
        let inode = std::mem::take(&mut d.inodes[ino as usize]);
        for i in 0.. {
            let b = inode.block_at(i);
            if b == 0 {
                break;
            }
            d.free_blocks.push(b);
        }
        if inode.indirect != 0 {
            let ind = inode.indirect;
            d.free_blocks.push(ind);
        }
        d.dir_dirty = true;
        Ok(())
    }

    fn file_size(&self, file: FileHandle) -> Result<u64, FsError> {
        let d = self.inner.borrow();
        let ino = d
            .inodes
            .get(file.0 as usize)
            .filter(|i| i.used)
            .ok_or(FsError::BadHandle)?;
        Ok(ino.size)
    }

    fn write(
        &self,
        sim: &mut Simulator,
        file: FileHandle,
        offset: u64,
        data: Vec<u8>,
        _sync: bool,
        done: Completion<Result<(), FsError>>,
    ) -> Result<(), FsError> {
        // ExtFs treats every write as O_SYNC, the paper's configuration.
        let (stack, dev, writes) = {
            let mut d = self.inner.borrow_mut();
            if data.is_empty() || !offset.is_multiple_of(FS_BLOCK_SIZE as u64) {
                return Err(FsError::InvalidArgument);
            }
            if d.inodes.get(file.0 as usize).filter(|i| i.used).is_none() {
                return Err(FsError::BadHandle);
            }
            let first = (offset / FS_BLOCK_SIZE as u64) as usize;
            let nblocks = data.len().div_ceil(FS_BLOCK_SIZE);
            if first + nblocks > DIRECT + PER_INDIRECT {
                return Err(FsError::NoSpace);
            }
            // Allocate missing blocks (and the indirect block on first
            // spill past the direct pointers). The indirect block is only
            // rewritten when a pointer in it actually changed — an
            // in-place overwrite of an allocated block does not touch it.
            let mut indirect_touched = false;
            for i in first..first + nblocks {
                if d.inodes[file.0 as usize].block_at(i) != 0 {
                    continue;
                }
                let b = Self::alloc_block(&mut d)?;
                let ino = &mut d.inodes[file.0 as usize];
                if i < DIRECT {
                    ino.direct[i] = b;
                } else {
                    indirect_touched = true;
                    while ino.indirect_map.len() < i - DIRECT {
                        ino.indirect_map.push(0);
                    }
                    ino.indirect_map.push(b);
                }
            }
            if indirect_touched && d.inodes[file.0 as usize].indirect == 0 {
                let b = Self::alloc_block(&mut d)?;
                d.inodes[file.0 as usize].indirect = b;
            }
            let end = offset + data.len() as u64;
            let ino = &mut d.inodes[file.0 as usize];
            if end > ino.size {
                ino.size = end;
            }
            // Assemble the synchronous write chain: data runs, then the
            // inode, then the indirect block, then a dirty directory.
            let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut i = 0usize;
            while i < nblocks {
                let start_blk = d.inodes[file.0 as usize].block_at(first + i);
                let mut run = 1usize;
                while i + run < nblocks
                    && d.inodes[file.0 as usize].block_at(first + i + run) == start_blk + run as u32
                {
                    run += 1;
                }
                let from = i * FS_BLOCK_SIZE;
                let to = ((i + run) * FS_BLOCK_SIZE).min(data.len());
                let mut bytes = data[from..to].to_vec();
                let pad = (FS_BLOCK_SIZE - bytes.len() % FS_BLOCK_SIZE) % FS_BLOCK_SIZE;
                bytes.resize(bytes.len() + pad, 0);
                writes.push((u64::from(start_blk) * SECTORS_PER_BLOCK, bytes));
                i += run;
            }
            let inode_sector = d.inodes[file.0 as usize].encode().to_vec();
            let indirect_write = if indirect_touched {
                let ino = &d.inodes[file.0 as usize];
                Some((
                    u64::from(ino.indirect) * SECTORS_PER_BLOCK,
                    encode_indirect(&ino.indirect_map),
                ))
            } else {
                None
            };
            writes.push((INODE_START_SECTOR + u64::from(file.0), inode_sector));
            d.stats.meta_writes += 1;
            if let Some(w) = indirect_write {
                writes.push(w);
                d.stats.meta_writes += 1;
            }
            if d.dir_dirty {
                writes.push((0, encode_directory(&d)));
                d.dir_dirty = false;
                d.stats.meta_writes += 1;
            }
            d.stats.sync_writes += 1;
            d.stats.bytes_written += data.len() as u64;
            d.pending += 1;
            (Rc::clone(&d.stack), d.dev, writes)
        };
        self.chain_writes(sim, stack, dev, writes, 0, done);
        Ok(())
    }

    fn read(
        &self,
        sim: &mut Simulator,
        file: FileHandle,
        offset: u64,
        len: usize,
        done: Completion<Result<Vec<u8>, FsError>>,
    ) -> Result<(), FsError> {
        let (stack, dev, reads, take) = {
            let mut d = self.inner.borrow_mut();
            if !offset.is_multiple_of(FS_BLOCK_SIZE as u64) || len == 0 {
                return Err(FsError::InvalidArgument);
            }
            let size = d
                .inodes
                .get(file.0 as usize)
                .filter(|i| i.used)
                .ok_or(FsError::BadHandle)?
                .size;
            if offset >= size {
                return Err(FsError::InvalidArgument);
            }
            let take = len.min((size - offset) as usize);
            let first = (offset / FS_BLOCK_SIZE as u64) as usize;
            let nblocks = take.div_ceil(FS_BLOCK_SIZE);
            let ino = &d.inodes[file.0 as usize];
            let reads: Vec<u32> = (first..first + nblocks).map(|i| ino.block_at(i)).collect();
            d.stats.reads += 1;
            d.pending += 1;
            (Rc::clone(&d.stack), d.dev, reads, take)
        };
        self.gather_reads(sim, stack, dev, reads, Vec::new(), take, done);
        Ok(())
    }

    fn pending_work(&self) -> usize {
        let d = self.inner.borrow();
        d.pending + d.stack.pending_work()
    }

    fn stats(&self) -> FsStats {
        self.inner.borrow().stats
    }
}

/// The directory block: magic, inode count, then one slot per entry.
fn encode_directory(d: &Inner) -> Vec<u8> {
    let mut b = vec![0u8; FS_BLOCK_SIZE];
    b[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    b[4..8].copy_from_slice(&(N_INODES as u32).to_le_bytes());
    for (slot, (name, &ino)) in d.dir.iter().enumerate() {
        let off = 8 + slot * (NAME_LEN + 8);
        b[off] = 1;
        let n = name.as_bytes();
        b[off + 1..off + 1 + n.len()].copy_from_slice(n);
        b[off + 1 + NAME_LEN..off + 5 + NAME_LEN].copy_from_slice(&ino.to_le_bytes());
    }
    b
}

impl ExtFs {
    /// Issues the synchronous write chain one piece at a time (each piece
    /// is a separate O_SYNC block write, as ext2 performs them).
    ///
    /// If a piece fails (a device error, a power cut), the host's token is
    /// delivered the same [`IoError`](trail_sim::IoError) instead of
    /// silently leaking, and the pending count is released.
    fn chain_writes(
        &self,
        sim: &mut Simulator,
        stack: Rc<dyn BlockStack>,
        dev: usize,
        writes: Vec<(u64, Vec<u8>)>,
        next: usize,
        done: Completion<Result<(), FsError>>,
    ) {
        if next >= writes.len() {
            self.inner.borrow_mut().pending -= 1;
            done.complete(sim, Ok(()));
            return;
        }
        let (lba, bytes) = writes[next].clone();
        let fs = self.clone();
        let stack2 = Rc::clone(&stack);
        let io_done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| match d {
            Ok(_) => fs.chain_writes(sim, stack2, dev, writes, next + 1, done),
            Err(e) => {
                fs.inner.borrow_mut().pending -= 1;
                done.fail(sim, e);
            }
        });
        // A rejected submission cancels `io_done`, which the handler above
        // passes on like any other failure.
        let _ = stack.write(sim, dev, lba, bytes, io_done);
    }

    #[allow(clippy::too_many_arguments)] // a scatter-read carries its whole plan
    fn gather_reads(
        &self,
        sim: &mut Simulator,
        stack: Rc<dyn BlockStack>,
        dev: usize,
        blocks: Vec<u32>,
        mut acc: Vec<u8>,
        take: usize,
        done: Completion<Result<Vec<u8>, FsError>>,
    ) {
        if acc.len() >= take || blocks.is_empty() {
            acc.truncate(take);
            self.inner.borrow_mut().pending -= 1;
            done.complete(sim, Ok(acc));
            return;
        }
        let blk = blocks[acc.len() / FS_BLOCK_SIZE];
        if blk == 0 {
            // Hole: zero-filled without I/O.
            acc.extend_from_slice(&[0u8; FS_BLOCK_SIZE]);
            self.gather_reads(sim, stack, dev, blocks, acc, take, done);
            return;
        }
        let fs = self.clone();
        let stack2 = Rc::clone(&stack);
        let io_done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| match d {
            Ok(res) => {
                let data = res.data.expect("read data");
                let mut acc = acc;
                let at = acc.len();
                acc.resize(at + data.len(), 0);
                data.copy_to(&mut acc[at..]);
                fs.gather_reads(sim, stack2, dev, blocks, acc, take, done);
            }
            Err(e) => {
                fs.inner.borrow_mut().pending -= 1;
                done.fail(sim, e);
            }
        });
        // See chain_writes: a rejected submission converges on the
        // failure path through the handler.
        let _ = stack.read(
            sim,
            dev,
            u64::from(blk) * SECTORS_PER_BLOCK,
            SECTORS_PER_BLOCK as u32,
            io_done,
        );
    }
}
