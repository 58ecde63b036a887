//! Pure address arithmetic for every array layout.
//!
//! Everything here is deterministic integer math with no I/O, so the
//! parity/striping algebra can be unit- and property-tested in isolation
//! from the asynchronous volume engine.

use trail_disk::Lba;

/// How a volume arranges its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolumeLayout {
    /// JBOD concatenation: members appended end to end.
    Linear,
    /// RAID-0 striping with a configurable chunk size.
    Raid0 {
        /// Sectors per chunk (stripe unit).
        chunk_sectors: u32,
    },
    /// RAID-1 mirroring: every member holds a full copy.
    Raid1 {
        /// Which mirror services a read.
        read_policy: ReadPolicy,
    },
    /// RAID-5 rotating parity (left-asymmetric), small writes via
    /// reconstruct-write (parity from whole rows).
    Raid5 {
        /// Sectors per chunk (stripe unit).
        chunk_sectors: u32,
    },
}

impl VolumeLayout {
    /// Short stable label ("linear", "raid0", "raid1", "raid5").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            VolumeLayout::Linear => "linear",
            VolumeLayout::Raid0 { .. } => "raid0",
            VolumeLayout::Raid1 { .. } => "raid1",
            VolumeLayout::Raid5 { .. } => "raid5",
        }
    }

    /// Fewest members the layout operates with.
    #[must_use]
    pub fn min_members(&self) -> usize {
        match self {
            VolumeLayout::Linear => 1,
            VolumeLayout::Raid0 { .. } | VolumeLayout::Raid1 { .. } => 2,
            VolumeLayout::Raid5 { .. } => 3,
        }
    }

    /// Addressable sectors given the members' raw capacities.
    ///
    /// Striped layouts round each member down to a whole number of
    /// chunks of the *smallest* member; RAID-1 exposes the smallest
    /// member; RAID-5 gives one member's worth to parity.
    #[must_use]
    pub fn capacity(&self, member_caps: &[u64]) -> u64 {
        let n = member_caps.len() as u64;
        let min = member_caps.iter().copied().min().unwrap_or(0);
        match self {
            VolumeLayout::Linear => member_caps.iter().sum(),
            VolumeLayout::Raid0 { chunk_sectors } => {
                let c = u64::from(*chunk_sectors);
                (min / c) * c * n
            }
            VolumeLayout::Raid1 { .. } => min,
            VolumeLayout::Raid5 { chunk_sectors } => {
                let c = u64::from(*chunk_sectors);
                (min / c) * c * (n - 1)
            }
        }
    }
}

/// Which mirror a RAID-1 read goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadPolicy {
    /// The member whose arm is closest to the target cylinder.
    NearestHead,
    /// Strict rotation over the surviving members.
    RoundRobin,
}

impl ReadPolicy {
    /// Short stable label ("near", "rr").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ReadPolicy::NearestHead => "near",
            ReadPolicy::RoundRobin => "rr",
        }
    }
}

/// One contiguous piece of a logical request on one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frag {
    /// Member index.
    pub member: usize,
    /// First sector on that member.
    pub member_lba: Lba,
    /// Sectors in this fragment.
    pub sectors: u32,
    /// Offset (sectors) from the start of the logical request.
    pub logical_off: u64,
}

/// Splits `[lba, lba+count)` across concatenated members.
#[must_use]
pub fn linear_map(member_caps: &[u64], lba: Lba, count: u32) -> Vec<Frag> {
    let mut frags = Vec::new();
    let mut remaining = u64::from(count);
    let mut cur = lba;
    let mut logical_off = 0u64;
    let mut base = 0u64;
    for (member, cap) in member_caps.iter().copied().enumerate() {
        let end = base + cap;
        if cur < end && remaining > 0 {
            let take = remaining.min(end - cur);
            frags.push(Frag {
                member,
                member_lba: cur - base,
                sectors: take as u32,
                logical_off,
            });
            logical_off += take;
            cur += take;
            remaining -= take;
        }
        base = end;
        if remaining == 0 {
            break;
        }
    }
    frags
}

/// Splits `[lba, lba+count)` across a RAID-0 stripe.
#[must_use]
pub fn raid0_map(members: usize, chunk_sectors: u32, lba: Lba, count: u32) -> Vec<Frag> {
    let c = u64::from(chunk_sectors);
    let n = members as u64;
    let mut frags = Vec::new();
    let mut cur = lba;
    let end = lba + u64::from(count);
    while cur < end {
        let chunk_idx = cur / c;
        let off = cur % c;
        let member = (chunk_idx % n) as usize;
        let member_lba = (chunk_idx / n) * c + off;
        let take = (c - off).min(end - cur);
        frags.push(Frag {
            member,
            member_lba,
            sectors: take as u32,
            logical_off: cur - lba,
        });
        cur += take;
    }
    frags
}

/// The member holding stripe `stripe`'s parity (left-asymmetric rotation:
/// parity walks from the last member toward the first as stripes advance).
#[must_use]
pub fn raid5_parity_member(members: usize, stripe: u64) -> usize {
    let n = members as u64;
    (n - 1 - (stripe % n)) as usize
}

/// The member holding data chunk `chunk` (0-based among the stripe's
/// `members - 1` data chunks) of stripe `stripe`.
#[must_use]
pub fn raid5_data_member(members: usize, stripe: u64, chunk: usize) -> usize {
    let p = raid5_parity_member(members, stripe);
    if chunk < p {
        chunk
    } else {
        chunk + 1
    }
}

/// One contiguous piece of a logical RAID-5 request within one data chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct R5Seg {
    /// Stripe row index.
    pub stripe: u64,
    /// Data chunk index within the stripe (`0..members-1`).
    pub chunk: usize,
    /// Member holding that chunk.
    pub member: usize,
    /// Offset (sectors) within the chunk.
    pub off: u64,
    /// Sectors in this segment.
    pub sectors: u32,
    /// Offset (sectors) from the start of the logical request.
    pub logical_off: u64,
}

impl R5Seg {
    /// The member LBA this segment starts at.
    #[must_use]
    pub fn member_lba(&self, chunk_sectors: u32) -> Lba {
        self.stripe * u64::from(chunk_sectors) + self.off
    }
}

/// Splits `[lba, lba+count)` into per-stripe, per-chunk segments.
#[must_use]
pub fn raid5_map(members: usize, chunk_sectors: u32, lba: Lba, count: u32) -> Vec<R5Seg> {
    let c = u64::from(chunk_sectors);
    let data_per_stripe = c * (members as u64 - 1);
    let mut segs = Vec::new();
    let mut cur = lba;
    let end = lba + u64::from(count);
    while cur < end {
        let stripe = cur / data_per_stripe;
        let within = cur % data_per_stripe;
        let chunk = (within / c) as usize;
        let off = within % c;
        let take = (c - off).min(end - cur);
        segs.push(R5Seg {
            stripe,
            chunk,
            member: raid5_data_member(members, stripe, chunk),
            off,
            sectors: take as u32,
            logical_off: cur - lba,
        });
        cur += take;
    }
    segs
}

/// All segments of one stripe, grouped, plus the union offset range the
/// parity update covers.
#[derive(Clone, Debug)]
pub struct R5StripeSpan {
    /// Stripe row index.
    pub stripe: u64,
    /// Member holding this stripe's parity.
    pub parity_member: usize,
    /// Written segments, in logical order.
    pub segs: Vec<R5Seg>,
    /// Union offset range `[lo, hi)` within the chunk rows.
    pub lo: u64,
    /// Exclusive upper bound of the union offset range.
    pub hi: u64,
    /// Whether the segments cover the entire stripe row (full-stripe
    /// write: parity from new data, no reads).
    pub full: bool,
}

/// Groups a write's segments by stripe.
#[must_use]
pub fn raid5_write_stripes(
    members: usize,
    chunk_sectors: u32,
    lba: Lba,
    count: u32,
) -> Vec<R5StripeSpan> {
    let c = u64::from(chunk_sectors);
    let mut spans: Vec<R5StripeSpan> = Vec::new();
    for seg in raid5_map(members, chunk_sectors, lba, count) {
        if spans.last().map(|s| s.stripe) != Some(seg.stripe) {
            spans.push(R5StripeSpan {
                stripe: seg.stripe,
                parity_member: raid5_parity_member(members, seg.stripe),
                segs: Vec::new(),
                lo: u64::MAX,
                hi: 0,
                full: false,
            });
        }
        let span = spans.last_mut().expect("span just ensured");
        span.lo = span.lo.min(seg.off);
        span.hi = span.hi.max(seg.off + u64::from(seg.sectors));
        span.segs.push(seg);
    }
    for span in &mut spans {
        span.full = span.lo == 0
            && span.hi == c
            && span.segs.len() == members - 1
            && span
                .segs
                .iter()
                .all(|s| s.off == 0 && u64::from(s.sectors) == c);
    }
    spans
}

/// XORs `src` into `dst` byte by byte.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities() {
        let caps = [1000, 1200, 900];
        assert_eq!(VolumeLayout::Linear.capacity(&caps), 3100);
        assert_eq!(
            VolumeLayout::Raid0 { chunk_sectors: 64 }.capacity(&caps),
            (900 / 64) * 64 * 3
        );
        assert_eq!(
            VolumeLayout::Raid1 {
                read_policy: ReadPolicy::RoundRobin
            }
            .capacity(&caps),
            900
        );
        assert_eq!(
            VolumeLayout::Raid5 { chunk_sectors: 64 }.capacity(&caps),
            (900 / 64) * 64 * 2
        );
    }

    #[test]
    fn linear_spans_member_boundaries() {
        let frags = linear_map(&[100, 100, 100], 90, 30);
        assert_eq!(
            frags,
            vec![
                Frag {
                    member: 0,
                    member_lba: 90,
                    sectors: 10,
                    logical_off: 0
                },
                Frag {
                    member: 1,
                    member_lba: 0,
                    sectors: 20,
                    logical_off: 10
                },
            ]
        );
    }

    #[test]
    fn raid0_rotates_chunks() {
        // chunk 4, 3 members: lba 0..4 -> m0, 4..8 -> m1, 8..12 -> m2,
        // 12..16 -> m0 at member_lba 4.
        let frags = raid0_map(3, 4, 2, 12);
        assert_eq!(frags.len(), 4);
        assert_eq!(frags[0].member, 0);
        assert_eq!(frags[0].member_lba, 2);
        assert_eq!(frags[0].sectors, 2);
        assert_eq!(frags[1].member, 1);
        assert_eq!(frags[1].member_lba, 0);
        assert_eq!(frags[2].member, 2);
        assert_eq!(frags[3].member, 0);
        assert_eq!(frags[3].member_lba, 4);
        assert_eq!(frags[3].sectors, 2);
        // Coverage is exact and in order.
        let total: u64 = frags.iter().map(|f| u64::from(f.sectors)).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn raid5_parity_rotates_left() {
        // 4 members: stripe 0 parity on member 3, stripe 1 on 2, ...
        assert_eq!(raid5_parity_member(4, 0), 3);
        assert_eq!(raid5_parity_member(4, 1), 2);
        assert_eq!(raid5_parity_member(4, 2), 1);
        assert_eq!(raid5_parity_member(4, 3), 0);
        assert_eq!(raid5_parity_member(4, 4), 3);
        // Data chunks skip the parity member.
        assert_eq!(raid5_data_member(4, 1, 0), 0);
        assert_eq!(raid5_data_member(4, 1, 1), 1);
        assert_eq!(raid5_data_member(4, 1, 2), 3);
    }

    #[test]
    fn raid5_full_stripe_detection() {
        // 3 members, chunk 4: a stripe row holds 8 data sectors.
        let spans = raid5_write_stripes(3, 4, 0, 8);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].full);
        assert_eq!(spans[0].lo, 0);
        assert_eq!(spans[0].hi, 4);
        // A 4-sector write at offset 2 straddles two chunks but is not a
        // full stripe.
        let spans = raid5_write_stripes(3, 4, 2, 4);
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].full);
        assert_eq!(spans[0].segs.len(), 2);
        assert_eq!((spans[0].lo, spans[0].hi), (0, 4));
        // Crossing a stripe boundary produces two spans.
        let spans = raid5_write_stripes(3, 4, 6, 4);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stripe, 0);
        assert_eq!(spans[1].stripe, 1);
    }

    #[test]
    fn raid5_map_covers_exactly() {
        let segs = raid5_map(5, 16, 123, 200);
        let total: u64 = segs.iter().map(|s| u64::from(s.sectors)).sum();
        assert_eq!(total, 200);
        let mut off = 0;
        for s in &segs {
            assert_eq!(s.logical_off, off, "segments in logical order");
            assert_ne!(
                s.member,
                raid5_parity_member(5, s.stripe),
                "data never lands on the parity member"
            );
            off += u64::from(s.sectors);
        }
    }

    #[test]
    fn xor_is_involutive() {
        let a = vec![0xA5u8; 16];
        let mut b = vec![0x3Cu8; 16];
        xor_into(&mut b, &a);
        xor_into(&mut b, &a);
        assert_eq!(b, vec![0x3C; 16]);
    }
}
