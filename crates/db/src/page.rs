//! Slotted pages: the engine's on-disk unit.
//!
//! A page is 4 KiB (eight 512-byte sectors — the same block size the
//! paper's Berkeley DB deployment used). Records live in a classic
//! slotted layout: a slot directory grows from the front, record bytes
//! grow from the back, and deleted slots are tombstoned so RIDs stay
//! stable.

use trail_disk::{PayloadBuf, SECTOR_SIZE};

/// Bytes per database page.
pub const PAGE_SIZE: usize = 4096;

/// Sectors per database page.
pub const SECTORS_PER_PAGE: u32 = (PAGE_SIZE / SECTOR_SIZE) as u32;

const HDR_LEN: usize = 4; // n_slots u16, free_ptr u16
const SLOT_LEN: usize = 4; // offset u16, len u16
const TOMBSTONE: u16 = u16::MAX;

/// Identifies a page: a device index and a page number on that device.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PageId {
    /// Device index within the stack.
    pub dev: u8,
    /// Page number; the page starts at sector `page_no * SECTORS_PER_PAGE`.
    pub page_no: u64,
}

impl PageId {
    /// The first sector of this page.
    pub fn first_lba(self) -> u64 {
        self.page_no * u64::from(SECTORS_PER_PAGE)
    }
}

/// A record's address: page plus slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rid {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: u16,
}

/// A 4-KiB slotted page.
///
/// # Examples
///
/// ```
/// use trail_db::Page;
///
/// let mut p = Page::new();
/// let slot = p.insert(b"hello").unwrap();
/// assert_eq!(p.get(slot), Some(&b"hello"[..]));
/// ```
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.n_slots())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Page {
    /// An empty page: record space grows backwards from the end.
    pub fn new() -> Self {
        let mut bytes = Box::new([0u8; PAGE_SIZE]);
        bytes[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { bytes }
    }

    /// Reconstructs a page from raw bytes (e.g. read from disk).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly [`PAGE_SIZE`] long.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), PAGE_SIZE, "page must be {PAGE_SIZE} bytes");
        let mut b = Box::new([0u8; PAGE_SIZE]);
        b.copy_from_slice(bytes);
        Page { bytes: b }
    }

    /// Reconstructs a page from a payload, copying its bytes once, in
    /// whatever form the payload keeps them.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is not exactly [`PAGE_SIZE`] long.
    pub fn from_payload(payload: &PayloadBuf) -> Self {
        let mut bytes = Box::new([0u8; PAGE_SIZE]);
        payload.copy_to(&mut bytes[..]);
        Page { bytes }
    }

    /// The raw page bytes (what gets written to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// The page's bytes as a `Vec`, in the page's own allocation: no byte
    /// is copied.
    pub fn into_bytes(self) -> Vec<u8> {
        let bytes: Box<[u8]> = self.bytes;
        bytes.into_vec()
    }

    fn n_slots(&self) -> u16 {
        u16::from_le_bytes([self.bytes[0], self.bytes[1]])
    }

    fn set_n_slots(&mut self, n: u16) {
        self.bytes[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn free_ptr(&self) -> u16 {
        u16::from_le_bytes([self.bytes[2], self.bytes[3]])
    }

    fn set_free_ptr(&mut self, p: u16) {
        self.bytes[2..4].copy_from_slice(&p.to_le_bytes());
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let off = HDR_LEN + slot as usize * SLOT_LEN;
        (
            u16::from_le_bytes([self.bytes[off], self.bytes[off + 1]]),
            u16::from_le_bytes([self.bytes[off + 2], self.bytes[off + 3]]),
        )
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let off = HDR_LEN + slot as usize * SLOT_LEN;
        self.bytes[off..off + 2].copy_from_slice(&offset.to_le_bytes());
        self.bytes[off + 2..off + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Contiguous bytes available for one more record (including its slot
    /// directory entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HDR_LEN + self.n_slots() as usize * SLOT_LEN;
        (self.free_ptr() as usize).saturating_sub(dir_end)
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_records(&self) -> usize {
        (0..self.n_slots())
            .filter(|&s| self.slot_entry(s).0 != TOMBSTONE)
            .count()
    }

    /// Inserts a record, returning its slot, or `None` if it does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `value` is empty or longer than a page can ever hold.
    pub fn insert(&mut self, value: &[u8]) -> Option<u16> {
        assert!(!value.is_empty(), "record must be nonempty");
        assert!(
            value.len() <= PAGE_SIZE - HDR_LEN - SLOT_LEN,
            "record of {} bytes can never fit a page",
            value.len()
        );
        if self.free_space() < value.len() + SLOT_LEN {
            return None;
        }
        let slot = self.n_slots();
        let new_free = self.free_ptr() as usize - value.len();
        self.bytes[new_free..new_free + value.len()].copy_from_slice(value);
        self.set_free_ptr(new_free as u16);
        self.set_slot_entry(slot, new_free as u16, value.len() as u16);
        self.set_n_slots(slot + 1);
        Some(slot)
    }

    /// Reads the record in `slot`, or `None` if the slot is out of range
    /// or tombstoned.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.n_slots() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE {
            return None;
        }
        Some(&self.bytes[off as usize..off as usize + len as usize])
    }

    /// Overwrites the record in `slot` in place.
    ///
    /// Returns `false` (leaving the page unchanged) if the new value is
    /// longer than the existing record — the caller must delete and
    /// reinsert, obtaining a new RID.
    pub fn update(&mut self, slot: u16, value: &[u8]) -> bool {
        if slot >= self.n_slots() {
            return false;
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE || value.len() > len as usize {
            return false;
        }
        self.bytes[off as usize..off as usize + value.len()].copy_from_slice(value);
        self.set_slot_entry(slot, off, value.len() as u16);
        true
    }

    /// Tombstones the record in `slot`. Space is not reclaimed (no
    /// compaction) but the RID can never be reused.
    ///
    /// Returns `false` if the slot was out of range or already deleted.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.n_slots() {
            return false;
        }
        let (off, _) = self.slot_entry(slot);
        if off == TOMBSTONE {
            return false;
        }
        self.set_slot_entry(slot, TOMBSTONE, 0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut p = Page::new();
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.get(a), Some(&b"alpha"[..]));
        assert_eq!(p.get(b), Some(&b"beta"[..]));
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 4096 / (100 + 4) ≈ 39 records.
        assert!((35..=40).contains(&n), "fit {n} records");
        assert!(p.free_space() < rec.len() + SLOT_LEN);
        // Smaller records still fit in the remainder.
        assert!(p.insert(&[1u8; 8]).is_some());
    }

    #[test]
    fn update_in_place_and_shrink() {
        let mut p = Page::new();
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"abcdefghij"));
        assert_eq!(p.get(s), Some(&b"abcdefghij"[..]));
        assert!(p.update(s, b"xyz"), "shrinking update is allowed");
        assert_eq!(p.get(s), Some(&b"xyz"[..]));
        assert!(!p.update(s, b"0123456789"), "cannot grow past original");
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        let s = p.insert(b"gone").unwrap();
        assert!(p.delete(s));
        assert_eq!(p.get(s), None);
        assert!(!p.delete(s), "double delete reports false");
        assert_eq!(p.live_records(), 0);
        // Subsequent inserts get fresh slots.
        let s2 = p.insert(b"new").unwrap();
        assert_ne!(s, s2);
    }

    #[test]
    fn bytes_round_trip_through_disk_format() {
        let mut p = Page::new();
        let s1 = p.insert(b"persist me").unwrap();
        let s2 = p.insert(&[0xAB; 64]).unwrap();
        p.delete(s1);
        let q = Page::from_bytes(p.as_bytes());
        assert_eq!(q.get(s1), None);
        assert_eq!(q.get(s2), Some(&[0xAB; 64][..]));
        assert_eq!(q.free_space(), p.free_space());
    }

    #[test]
    fn out_of_range_slot_is_none() {
        let p = Page::new();
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(100), None);
    }

    #[test]
    fn page_id_lba_mapping() {
        let pid = PageId { dev: 1, page_no: 5 };
        assert_eq!(pid.first_lba(), 40);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_record_rejected() {
        Page::new().insert(b"");
    }
}
