//! Simulated-memory allocation and typed views.
//!
//! Application data structures live in two parallel worlds: the *host* world
//! (real Rust values, so the trie really routes and the flow table really
//! counts) and the *simulated* world (an address range in some NUMA domain,
//! so every access has a cache/memory cost). [`SimVec`] and [`SimRing`] keep
//! the two in lockstep: element code can only reach the host data through
//! methods that charge the corresponding simulated access.
//!
//! Every replica of a structure owns a *private* simulated range — that is
//! what the paper's per-flow replicas contend with. The host world need not
//! be private: a [`SharedSimVec`] holds read-only host data behind an `Rc`,
//! so replicas built from identical contents (the routing tables of flows of
//! one type) share one host copy while each charges its own simulated
//! addresses. The type has no mutating methods, which is what makes the
//! sharing sound: no replica can change what another one reads.
//!
//! Nor need the host element be as wide as the simulated one. A structure
//! whose simulated element carries padding or fields the model never reads
//! (a 24-byte trie node of which the lookup reads 12) keeps only the read
//! fields on the host and states its simulated size as the *stride*
//! ([`SimVec::from_vec_strided`], [`SharedSimVec::from_shared`]).
//! Addresses and charges follow the stride alone, so a packed host element
//! costs exactly what the padded one did.
//!
//! Allocation is a simple per-domain bump allocator — the workloads allocate
//! at startup and never free, exactly like the paper's applications, which
//! pre-allocate their tables and buffer pools.

use crate::ctx::ExecCtx;
use crate::types::{Addr, MemDomain, CACHE_LINE};
use std::borrow::Borrow;
use std::marker::PhantomData;
use std::rc::Rc;

/// Bump allocator for one NUMA domain's simulated address range.
#[derive(Debug, Clone)]
pub struct DomainAllocator {
    domain: MemDomain,
    next: Addr,
}

impl DomainAllocator {
    /// Allocator starting at the domain's base (offset by one line so that
    /// address 0 is never handed out — it doubles as a debugging canary).
    pub fn new(domain: MemDomain) -> Self {
        DomainAllocator { domain, next: domain.base() + CACHE_LINE }
    }

    /// The domain this allocator serves.
    pub fn domain(&self) -> MemDomain {
        self.domain
    }

    /// Allocate `bytes` with the given alignment (power of two).
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + bytes.max(1);
        debug_assert_eq!(crate::types::domain_of(base), self.domain, "domain overflow");
        base
    }

    /// Allocate a cache-line-aligned region.
    pub fn alloc_lines(&mut self, bytes: u64) -> Addr {
        self.alloc(bytes, CACHE_LINE)
    }

    /// Bytes handed out so far.
    pub fn used(&self) -> u64 {
        self.next - self.domain.base()
    }
}

/// A typed array that exists in both worlds: host storage `S` (a `Vec<T>`
/// by default) plus a range of simulated addresses. Reading or writing an
/// element charges the simulated memory accesses for every cache line the
/// element covers. Mutation is offered only over owned `Vec` storage; see
/// [`SharedSimVec`] for the read-only, shared-host form.
#[derive(Debug, Clone)]
pub struct SimVec<T, S = Vec<T>> {
    data: S,
    base: Addr,
    stride: u64,
    elem: PhantomData<T>,
}

/// A read-only [`SimVec`] whose host data is shared (`Rc<Vec<T>>`) among
/// replicas, while each replica's simulated range stays its own: two
/// `SharedSimVec`s over one `Rc` read identical values at disjoint simulated
/// addresses, so each replica contends in the cache model exactly as a
/// privately built copy would. The `Rc` holds a `Vec` rather than a `[T]`
/// so sharing a freshly built array copies nothing, and a `Weak` outliving
/// the array pins only the `Vec` header, not its buffer.
pub type SharedSimVec<T> = SimVec<T, Rc<Vec<T>>>;

/// The simulated size of a `T` laid out at its natural size.
fn natural_stride<T>() -> u64 {
    std::mem::size_of::<T>().max(1) as u64
}

impl<T: Copy, S: Borrow<Vec<T>>> SimVec<T, S> {
    /// Place host data in simulated memory, `stride` bytes per element at
    /// `T`'s alignment. Elements are contiguous (so several small elements
    /// share a cache line, as a real array would). A stride wider than `T`
    /// is the simulated size of an element whose unread fields the host
    /// copy leaves out.
    fn place(alloc: &mut DomainAllocator, data: S, stride: u64) -> Self {
        let align = (std::mem::align_of::<T>() as u64).max(1);
        assert!(
            stride >= natural_stride::<T>() && stride.is_multiple_of(align),
            "stride {stride} must cover the {}-byte element and keep its {align}-byte alignment",
            std::mem::size_of::<T>()
        );
        let base = alloc.alloc(stride * data.borrow().len().max(1) as u64, align);
        SimVec { data, base, stride, elem: PhantomData }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.borrow().is_empty()
    }

    /// Simulated address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> Addr {
        debug_assert!(i < self.len());
        self.base + i as u64 * self.stride
    }

    /// Simulated bytes per element (the span a [`read`](Self::read)
    /// charges); at least the host element's size.
    #[inline]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// First simulated address of the array.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Total simulated footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.stride * self.len() as u64
    }

    /// Read element `i`, charging a dependent load for each line covered.
    #[inline]
    pub fn read(&self, ctx: &mut ExecCtx<'_>, i: usize) -> T {
        ctx.read_struct(self.addr_of(i), self.stride);
        self.data.borrow()[i]
    }

    /// Host-side view without simulated cost. For construction, assertions,
    /// and tests only — element fast paths must use [`read`](Self::read).
    pub fn peek(&self, i: usize) -> &T {
        &self.data.borrow()[i]
    }
}

impl<T: Copy> SimVec<T> {
    /// Materialize a host vector in simulated memory.
    pub fn from_vec(alloc: &mut DomainAllocator, data: Vec<T>) -> Self {
        Self::place(alloc, data, natural_stride::<T>())
    }

    /// [`from_vec`](Self::from_vec) with a simulated element size of
    /// `stride` bytes (at least `size_of::<T>()`, a multiple of `T`'s
    /// alignment): the array is laid out and charged as if each element
    /// were `stride` bytes wide.
    pub fn from_vec_strided(alloc: &mut DomainAllocator, data: Vec<T>, stride: u64) -> Self {
        Self::place(alloc, data, stride)
    }

    /// An array of `len` copies of `init`.
    pub fn new(alloc: &mut DomainAllocator, len: usize, init: T) -> Self {
        Self::from_vec(alloc, vec![init; len])
    }

    /// Overwrite element `i`, charging stores for each line covered.
    #[inline]
    pub fn write(&mut self, ctx: &mut ExecCtx<'_>, i: usize, v: T) {
        ctx.write_struct(self.addr_of(i), self.stride);
        self.data[i] = v;
    }

    /// Read-modify-write element `i` in place: charges one load plus one
    /// store on the covering line(s), like `x.field += 1` on real hardware.
    #[inline]
    pub fn update<R>(&mut self, ctx: &mut ExecCtx<'_>, i: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let addr = self.addr_of(i);
        ctx.read_struct(addr, self.stride);
        ctx.write_struct(addr, self.stride);
        f(&mut self.data[i])
    }

    /// Host-side mutable view without simulated cost (setup code only).
    pub fn peek_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

impl<T: Copy> SharedSimVec<T> {
    /// Give shared host data a simulated range of its own in `alloc`'s
    /// domain, `stride` bytes per element — the same size and alignment
    /// [`SimVec::from_vec_strided`] would allocate for the same elements.
    pub fn from_shared(alloc: &mut DomainAllocator, data: Rc<Vec<T>>, stride: u64) -> Self {
        Self::place(alloc, data, stride)
    }
}

/// A byte ring in simulated memory — the shape of the paper's RE "packet
/// store" (a cache of recently observed content, far larger than the L3).
#[derive(Debug, Clone)]
pub struct SimRing {
    data: Vec<u8>,
    base: Addr,
    head: u64,
    wrapped: bool,
}

impl SimRing {
    /// A ring of `capacity` bytes (rounded up to whole cache lines).
    pub fn new(alloc: &mut DomainAllocator, capacity: u64) -> Self {
        let cap = capacity.div_ceil(CACHE_LINE) * CACHE_LINE;
        let base = alloc.alloc_lines(cap);
        SimRing { data: vec![0u8; cap as usize], base, head: 0, wrapped: false }
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Total bytes ever appended (monotonic logical offset of the head).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Whether a logical offset is still resident (not yet overwritten).
    pub fn contains(&self, offset: u64, len: u64) -> bool {
        let cap = self.capacity();
        offset + len <= self.head && self.head - offset <= cap
    }

    /// Append bytes at the head, charging stores for the covered lines.
    /// Returns the logical offset where the bytes were stored.
    pub fn append(&mut self, ctx: &mut ExecCtx<'_>, bytes: &[u8]) -> u64 {
        let cap = self.capacity();
        assert!(
            (bytes.len() as u64) <= cap,
            "append larger than ring capacity"
        );
        let offset = self.head;
        for (k, &b) in bytes.iter().enumerate() {
            let pos = (offset + k as u64) % cap;
            self.data[pos as usize] = b;
        }
        // Charge stores line-by-line (handling wraparound as two ranges).
        let start = offset % cap;
        let first = (bytes.len() as u64).min(cap - start);
        ctx.write_struct(self.base + start, first);
        if (bytes.len() as u64) > first {
            self.wrapped = true;
            ctx.write_struct(self.base, bytes.len() as u64 - first);
        }
        if start + (bytes.len() as u64) >= cap {
            self.wrapped = true;
        }
        self.head += bytes.len() as u64;
        offset
    }

    /// Read `out.len()` bytes at logical `offset`, charging loads. Returns
    /// `false` (reading nothing) if the range has been overwritten.
    pub fn read_at(&self, ctx: &mut ExecCtx<'_>, offset: u64, out: &mut [u8]) -> bool {
        if !self.contains(offset, out.len() as u64) {
            return false;
        }
        let cap = self.capacity();
        for (k, o) in out.iter_mut().enumerate() {
            let pos = (offset + k as u64) % cap;
            *o = self.data[pos as usize];
        }
        let start = offset % cap;
        let first = (out.len() as u64).min(cap - start);
        ctx.read_struct(self.base + start, first);
        if (out.len() as u64) > first {
            ctx.read_struct(self.base, out.len() as u64 - first);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::Machine;
    use crate::types::CoreId;

    fn test_machine() -> Machine {
        Machine::new(MachineConfig::tiny_test())
    }

    #[test]
    fn allocator_respects_alignment_and_domain() {
        let mut a = DomainAllocator::new(MemDomain(1));
        let p1 = a.alloc(10, 8);
        let p2 = a.alloc(100, 64);
        assert_eq!(p1 % 8, 0);
        assert_eq!(p2 % 64, 0);
        assert!(p2 >= p1 + 10);
        assert_eq!(crate::types::domain_of(p1), MemDomain(1));
        assert!(a.used() >= 110);
    }

    #[test]
    fn simvec_roundtrip_and_addresses() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut v = SimVec::new(&mut a, 100, 0u64);
        assert_eq!(v.addr_of(1) - v.addr_of(0), 8);
        let mut ctx = m.ctx(CoreId(0));
        v.write(&mut ctx, 7, 42);
        assert_eq!(v.read(&mut ctx, 7), 42);
        assert_eq!(*v.peek(7), 42);
        // The access was charged: at least one L1 ref happened.
        assert!(m.core(CoreId(0)).counters.total().l1_refs >= 2);
    }

    #[test]
    fn simvec_update_charges_load_and_store() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut v = SimVec::new(&mut a, 4, 5u32);
        let mut ctx = m.ctx(CoreId(0));
        v.update(&mut ctx, 2, |x| *x += 1);
        assert_eq!(*v.peek(2), 6);
        let c = m.core(CoreId(0)).counters.total();
        assert!(c.l1_refs >= 2, "update must charge a load and a store");
    }

    #[test]
    fn strided_packed_element_charges_like_padded_element() {
        // A 24-byte element ([u32; 6]) of which the packed host copy keeps
        // the first 12 bytes ([u32; 3]) at a stride of 24.
        let run = |touch: &dyn Fn(&mut DomainAllocator, &mut ExecCtx<'_>) -> (u64, u64)| {
            let mut m = test_machine();
            let mut a = DomainAllocator::new(MemDomain(0));
            let (addr, stride) = touch(&mut a, &mut m.ctx(CoreId(0)));
            (addr, stride, a.used(), m.core(CoreId(0)).clock, m.core(CoreId(0)).counters.total())
        };
        // Element 2 straddles a line boundary (48..72), so it covers two.
        let padded = run(&|a, ctx| {
            let mut v = SimVec::new(a, 10, [7u32; 6]);
            v.write(ctx, 2, [1; 6]);
            v.update(ctx, 5, |e| e[0] += 1);
            let _ = v.read(ctx, 2);
            (v.addr_of(2), v.stride())
        });
        let packed = run(&|a, ctx| {
            let mut v = SimVec::from_vec_strided(a, vec![[7u32; 3]; 10], 24);
            v.write(ctx, 2, [1; 3]);
            v.update(ctx, 5, |e| e[0] += 1);
            let _ = v.read(ctx, 2);
            (v.addr_of(2), v.stride())
        });
        assert_eq!(packed, padded);
        let shared = run(&|a, ctx| {
            let v = SharedSimVec::from_shared(a, Rc::new(vec![[7u32; 3]; 10]), 24);
            let _ = v.read(ctx, 2);
            (v.addr_of(2), v.footprint())
        });
        let padded_read = run(&|a, ctx| {
            let v = SimVec::new(a, 10, [7u32; 6]);
            let _ = v.read(ctx, 2);
            (v.addr_of(2), v.footprint())
        });
        assert_eq!(shared, padded_read);
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn stride_below_element_size_panics() {
        let mut a = DomainAllocator::new(MemDomain(0));
        let _ = SimVec::from_vec_strided(&mut a, vec![[0u32; 3]; 4], 8);
    }

    #[test]
    fn simring_append_read_roundtrip() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut r = SimRing::new(&mut a, 256);
        let mut ctx = m.ctx(CoreId(0));
        let off = r.append(&mut ctx, b"hello world");
        let mut buf = [0u8; 11];
        assert!(r.read_at(&mut ctx, off, &mut buf));
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn simring_overwrite_invalidates_old_offsets() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut r = SimRing::new(&mut a, 128);
        let mut ctx = m.ctx(CoreId(0));
        let off0 = r.append(&mut ctx, &[1u8; 100]);
        let _ = r.append(&mut ctx, &[2u8; 100]); // wraps, overwrites off0
        let mut buf = [0u8; 100];
        assert!(!r.read_at(&mut ctx, off0, &mut buf));
        // Newest data still readable.
        let off2 = r.head() - 100;
        assert!(r.read_at(&mut ctx, off2, &mut buf));
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn simring_wraparound_preserves_bytes() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut r = SimRing::new(&mut a, 64); // exactly one line
        let mut ctx = m.ctx(CoreId(0));
        let _ = r.append(&mut ctx, &[9u8; 40]);
        let off = r.append(&mut ctx, &[7u8; 40]); // wraps
        let mut buf = [0u8; 40];
        assert!(r.read_at(&mut ctx, off, &mut buf));
        assert_eq!(buf, [7u8; 40]);
    }
}
