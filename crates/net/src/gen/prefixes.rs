//! Routing-table generation: random prefix tables shaped like real BGP
//! tables (the paper uses a 128 000-entry table with the Click RadixTrie).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// One routing-table entry: `addr/len -> next_hop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixEntry {
    /// Network address (host byte order; bits below `len` are zero).
    pub addr: u32,
    /// Prefix length (0..=32).
    pub len: u8,
    /// Opaque next-hop identifier.
    pub next_hop: u32,
}

impl PrefixEntry {
    /// Whether `ip` falls inside this prefix.
    pub fn matches(&self, ip: u32) -> bool {
        if self.len == 0 {
            return true;
        }
        let shift = 32 - self.len as u32;
        (ip >> shift) == (self.addr >> shift)
    }
}

/// Generate `n` distinct random prefixes with a length distribution shaped
/// like a real routing table (mostly /24s, a fat /16–/23 band, few short
/// prefixes). If `with_default_cover` is set, 256 `/8` entries covering the
/// whole unicast space are prepended so every lookup resolves — the paper's
/// forwarding experiments never drop on lookup failure.
pub fn generate_prefixes(n: usize, seed: u64, with_default_cover: bool) -> Vec<PrefixEntry> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen: HashSet<(u32, u8)> = HashSet::new();
    let mut out = Vec::with_capacity(n + 256);

    if with_default_cover {
        for first in 0..=255u32 {
            let addr = first << 24;
            out.push(PrefixEntry { addr, len: 8, next_hop: first });
            seen.insert((addr, 8));
        }
    }

    while out.len() < n + if with_default_cover { 256 } else { 0 } {
        // Empirical routing-table shape: ~55% /24, ~35% /16..=/23, ~10% /9..=/15.
        let roll: f64 = rng.random();
        let len: u8 = if roll < 0.55 {
            24
        } else if roll < 0.90 {
            rng.random_range(16..=23)
        } else {
            rng.random_range(9..=15)
        };
        let ip: u32 = rng.random();
        let shift = 32 - len as u32;
        let addr = (ip >> shift) << shift;
        if seen.insert((addr, len)) {
            let next_hop = rng.random_range(0..64);
            out.push(PrefixEntry { addr, len, next_hop });
        }
    }
    out
}

/// Reference longest-prefix-match by linear scan — O(n) per lookup, used as
/// the oracle in trie tests.
pub fn linear_lpm(table: &[PrefixEntry], ip: u32) -> Option<PrefixEntry> {
    table
        .iter()
        .filter(|e| e.matches(ip))
        .max_by_key(|e| e.len)
        .copied()
}

/// A multiplicative hasher for one `u64` key. SipHash's flood resistance
/// buys nothing for generated keys, and only membership is ever asked of
/// the set, so iteration order cannot leak into the table.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the low bits the table indexes by.
        self.0 ^ (self.0 >> 32)
    }
}

/// The prefixes a generated table already holds, keyed `addr << 8 | len`.
type PrefixSet = HashSet<u64, BuildHasherDefault<MulHasher>>;

fn prefix_key(addr: u32, len: u8) -> u64 {
    u64::from(addr) << 8 | u64::from(len)
}

/// Generate a *BGP-shaped* table of roughly `n` prefixes: hierarchical
/// layers (/8 covering the space, then /12, /16, /20, /24 allocations, each
/// layer drawn as children of the previous one), like a real default-free
/// routing table.
///
/// This is the structure that gives the paper's deep lookups: a random
/// destination always matches some prefix, usually descends through several
/// allocation layers, and so walks a long dependent chain in a radix trie.
/// A flat uniform-random table (as [`generate_prefixes`] produces) lets
/// most lookups exit at the /8 cover after a couple of reads — nothing like
/// the measured behaviour of forwarding under a real table.
pub fn generate_bgp_table(n: usize, seed: u64) -> Vec<PrefixEntry> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = PrefixSet::default();
    let mut out: Vec<PrefixEntry> = Vec::with_capacity(n + 256);
    let hop = |rng: &mut SmallRng| rng.random_range(0..64u32);

    // Layer 0: the full /8 cover (256 entries) — every address routable.
    let mut eights: Vec<u32> = Vec::new();
    for first in 0..=255u32 {
        let addr = first << 24;
        let h = hop(&mut rng);
        out.push(PrefixEntry { addr, len: 8, next_hop: h });
        seen.insert(prefix_key(addr, 8));
        eights.push(addr);
    }

    // Allocation layers. Real default-free tables are *dense*: nearly every
    // /8 hosts hundreds of longer prefixes, so a random destination shares
    // 16-24 path bits with some table entry — that density is what makes
    // radix-trie lookups walk deep, as the paper's platform measured.
    let budget = n.saturating_sub(256);
    let n12 = budget * 3 / 100;
    let n16 = budget * 13 / 100;
    let n20 = budget * 19 / 100;
    let n24_nested = budget * 23 / 100;
    let n24_scatter = budget - n12 - n16 - n20 - n24_nested;

    let extend = |rng: &mut SmallRng,
                      seen: &mut PrefixSet,
                      out: &mut Vec<PrefixEntry>,
                      parents: &Vec<u32>,
                      parent_len: u8,
                      len: u8,
                      count: usize| {
        let mut layer = Vec::with_capacity(count);
        if parents.is_empty() || count == 0 {
            return layer;
        }
        let ext_bits = len - parent_len;
        let mut attempts = 0usize;
        while layer.len() < count && attempts < count * 30 {
            attempts += 1;
            let parent = parents[rng.random_range(0..parents.len())];
            let ext: u32 = rng.random_range(0..(1u32 << ext_bits));
            let addr = parent | (ext << (32 - len as u32));
            if seen.insert(prefix_key(addr, len)) {
                let h = hop(rng);
                out.push(PrefixEntry { addr, len, next_hop: h });
                layer.push(addr);
            }
        }
        layer
    };

    let twelves = extend(&mut rng, &mut seen, &mut out, &eights, 8, 12, n12);
    let sixteens = extend(&mut rng, &mut seen, &mut out, &eights, 8, 16, n16);
    let base16 = if sixteens.is_empty() { &twelves } else { &sixteens };
    let twenties = extend(&mut rng, &mut seen, &mut out, base16, 16, 20, n20);
    let base20 = if twenties.is_empty() { base16 } else { &twenties };
    let _ = extend(&mut rng, &mut seen, &mut out, base20, 20, 24, n24_nested);
    // Scattered /24s: dense per-/8 allocation (random low 16 bits).
    let _ = extend(&mut rng, &mut seen, &mut out, &eights, 8, 24, n24_scatter);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let t = generate_prefixes(1000, 42, false);
        assert_eq!(t.len(), 1000);
        let t = generate_prefixes(1000, 42, true);
        assert_eq!(t.len(), 1256);
    }

    #[test]
    fn prefixes_are_canonical_and_distinct() {
        let t = generate_prefixes(5000, 7, false);
        let mut seen = HashSet::new();
        for e in &t {
            assert!(e.len >= 9 && e.len <= 24);
            let shift = 32 - e.len as u32;
            assert_eq!(e.addr, (e.addr >> shift) << shift, "low bits must be zero");
            assert!(seen.insert((e.addr, e.len)), "duplicate prefix");
        }
    }

    #[test]
    fn default_cover_resolves_everything() {
        let t = generate_prefixes(100, 3, true);
        for ip in [0u32, 0x0a000001, 0xdeadbeef, u32::MAX] {
            assert!(linear_lpm(&t, ip).is_some(), "no match for {ip:#x}");
        }
    }

    #[test]
    fn lpm_prefers_longest() {
        let table = vec![
            PrefixEntry { addr: 0x0a000000, len: 8, next_hop: 1 },
            PrefixEntry { addr: 0x0a010000, len: 16, next_hop: 2 },
            PrefixEntry { addr: 0x0a010200, len: 24, next_hop: 3 },
        ];
        assert_eq!(linear_lpm(&table, 0x0a010203).unwrap().next_hop, 3);
        assert_eq!(linear_lpm(&table, 0x0a01ff01).unwrap().next_hop, 2);
        assert_eq!(linear_lpm(&table, 0x0aff0001).unwrap().next_hop, 1);
        assert_eq!(linear_lpm(&table, 0x0b000001), None);
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate_prefixes(500, 9, true), generate_prefixes(500, 9, true));
    }

    #[test]
    fn length_distribution_shape() {
        let t = generate_prefixes(10_000, 1, false);
        let n24 = t.iter().filter(|e| e.len == 24).count();
        assert!(n24 > 4500 && n24 < 6500, "/24 fraction off: {n24}");
    }

    #[test]
    fn bgp_table_covers_everything() {
        let t = generate_bgp_table(10_000, 7);
        for ip in [0u32, 0x0a000001, 0xdeadbeef, u32::MAX, 0x7f000001] {
            assert!(linear_lpm(&t, ip).is_some(), "no match for {ip:#x}");
        }
    }

    #[test]
    fn bgp_table_is_layered_and_dense() {
        let t = generate_bgp_table(20_000, 3);
        assert!(t.len() > 18_000, "size {}", t.len());
        // Every prefix has the /8 cover above it (full routability).
        for e in t.iter().filter(|e| e.len > 8) {
            let parent = e.addr & 0xFF00_0000;
            assert!(
                t.iter().any(|p| p.len == 8 && p.addr == parent),
                "prefix {:#x}/{} has no /8 cover",
                e.addr,
                e.len
            );
        }
        // Longest-prefix lengths skew toward /24.
        let n24 = t.iter().filter(|e| e.len == 24).count();
        assert!(n24 * 2 > t.len(), "/24s should dominate: {n24} of {}", t.len());
        // Density: a typical /8 hosts dozens of deeper prefixes.
        let under_10 = t.iter().filter(|e| e.len > 8 && (e.addr >> 24) == 10).count();
        assert!(under_10 > 20, "/8s should be densely allocated, got {under_10}");
    }

    #[test]
    fn bgp_table_deterministic() {
        assert_eq!(generate_bgp_table(5000, 9), generate_bgp_table(5000, 9));
    }

    #[test]
    fn bgp_table_reaches_internet_scale() {
        // PR 10's DRAM-resident regime asks for ~1M prefixes. The /12 and
        // /16 layers saturate their address space before their percentage
        // shares (4k and 64k slots), so the generator lands a little short
        // of the request — assert it stays within ~10% and stays valid.
        let t = generate_bgp_table(1_000_000, 42);
        assert!(
            t.len() >= 880_000 && t.len() <= 1_000_000,
            "requested 1M, got {}",
            t.len()
        );
        for e in t.iter().step_by(997) {
            assert!(e.len <= 32);
            let mask = if e.len == 0 { 0 } else { u32::MAX << (32 - e.len) };
            assert_eq!(e.addr & !mask, 0, "unmasked bits in {:#x}/{}", e.addr, e.len);
        }
        // /24s dominate, as in real BGP dumps.
        let n24 = t.iter().filter(|e| e.len == 24).count();
        assert!(n24 * 2 > t.len(), "/24s should dominate: {n24} of {}", t.len());
    }
}
