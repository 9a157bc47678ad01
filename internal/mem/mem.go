// Package mem simulates the memory of a 64-bit Linux process: a sparse
// page-granular address space organized into virtual memory areas (VMAs) for
// text, data, heap, mmap arena and stack, with a brk/mmap-style heap
// allocator and Linux's stack auto-extension semantics.
//
// The package is the single source of truth for "would this access fault?":
// both the interpreter (ground truth for fault-injection experiments) and
// the ePVF crash model (the prediction) call Resolve on the same VMA
// tables, mirroring how the paper's crash model encodes the Linux kernel's
// do_page_fault/expand_stack logic (DSN'16 §III-D, Fig. 4).
package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// StackGuardGap is the window below the stack pointer within which Linux
// treats an access under the stack VMA as a legal stack-extension access:
// 64 KiB for a maximal x86 string instruction plus 128 bytes of red zone
// (the "ESP - 65536 - 128" rule in the paper's Algorithm 3).
const StackGuardGap = 65536 + 128

// Perm is a VMA permission bit set.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders the permissions /proc/self/maps style.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// SegKind classifies a VMA.
type SegKind int

// Segment kinds. Enums start at one.
const (
	SegText SegKind = iota + 1
	SegROData
	SegData
	SegHeap
	SegMmap
	SegStack
)

var segNames = map[SegKind]string{
	SegText: "text", SegROData: "rodata", SegData: "data",
	SegHeap: "heap", SegMmap: "mmap", SegStack: "stack",
}

// String returns the segment name.
func (k SegKind) String() string {
	if s, ok := segNames[k]; ok {
		return s
	}
	return fmt.Sprintf("seg(%d)", int(k))
}

// VMA is one virtual memory area: the half-open byte range [Start, End).
type VMA struct {
	Start, End uint64
	Perm       Perm
	Kind       SegKind
}

// Contains reports whether addr falls inside the VMA.
func (v VMA) Contains(addr uint64) bool { return addr >= v.Start && addr < v.End }

// String renders the VMA /proc/self/maps style.
func (v VMA) String() string {
	return fmt.Sprintf("%012x-%012x %s [%s]", v.Start, v.End, v.Perm, v.Kind)
}

// Layout fixes the base addresses of the simulated process image. All
// fields are page-aligned.
type Layout struct {
	TextBase   uint64
	RODataBase uint64
	DataBase   uint64
	HeapBase   uint64
	MmapBase   uint64
	StackTop   uint64
	// StackRLimit is the maximum stack size (RLIMIT_STACK), 8 MiB by
	// default.
	StackRLimit uint64
	// InitialStackPages is how many pages of stack are mapped at startup.
	InitialStackPages int
}

// DefaultLayout returns the canonical x86-64 Linux-like layout used
// throughout the experiments.
func DefaultLayout() Layout {
	return Layout{
		TextBase:          0x0000_0040_0000,
		RODataBase:        0x0000_0060_0000,
		DataBase:          0x0000_0070_0000,
		HeapBase:          0x0000_0090_0000,
		MmapBase:          0x7f00_0000_0000,
		StackTop:          0x7fff_ffde_0000,
		StackRLimit:       8 << 20,
		InitialStackPages: 4,
	}
}

// Jitter returns a copy of the layout with the heap base, mmap base and
// stack top independently shifted by a random page-aligned offset in
// [0, window). This models the run-to-run segment-boundary drift (ASLR,
// allocator nondeterminism) that the paper identifies as the cause of its
// recall/precision gap (§IV-B): the ePVF model profiles one layout while
// fault-injection runs execute under another.
func (l Layout) Jitter(rng *rand.Rand, window uint64) Layout {
	if window == 0 {
		return l
	}
	pages := window / PageSize
	if pages == 0 {
		pages = 1
	}
	shift := func() uint64 { return uint64(rng.Int63n(int64(pages))) * PageSize }
	j := l
	j.HeapBase += shift()
	j.MmapBase += shift()
	j.StackTop -= shift()
	return j
}

// AccessError reports an access that the simulated MMU rejects. It is
// translated by the interpreter into the SIGSEGV exception.
type AccessError struct {
	Addr  uint64
	Size  int64
	Write bool
	// Reason is a short human-readable cause ("unmapped", "below stack
	// guard", "write to read-only", "stack rlimit").
	Reason string
}

// Error implements error.
func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("segmentation fault: %s of %d bytes at %#x (%s)", op, e.Size, e.Addr, e.Reason)
}

// page is one refcounted copy-on-write page. refs counts the address
// spaces referencing it; a write through an address space that is not the
// sole owner first copies the page (write-fault semantics). An absent page
// reads as zeroes, so an all-zero page and a missing page are
// indistinguishable to programs.
type page struct {
	refs atomic.Int32
	data [PageSize]byte
}

func newPage() *page {
	p := &page{}
	p.refs.Store(1)
	return p
}

// AddressSpace is a simulated process address space.
type AddressSpace struct {
	layout Layout
	vmas   []VMA // sorted by Start, non-overlapping
	pages  map[uint64]*page

	sp       uint64 // current stack pointer
	brk      uint64 // current heap break (end of heap VMA)
	mmapNext uint64

	allocs map[uint64]uint64 // malloc'd block start -> size

	// version increments whenever the VMA table changes; trace records it
	// so the crash model can replay the exact segment boundaries seen at
	// each access.
	version   int
	snapshots map[int][]VMA

	// dirtied counts pages made privately writable in this address space:
	// fresh page materializations plus copy-on-write faults. Forks start
	// at zero, so the delta between two points is the snapshot "dirty
	// page" cost.
	dirtied int64

	// One-entry VMA-bounds caches for the LoadFast/StoreFast hot path.
	// Each caches the [lo, hi) of the VMA that satisfied the most recent
	// fast access, tagged with the version that made it valid; any VMA
	// table change bumps version and so invalidates both. VMAs only ever
	// grow or get appended (Free keeps mmap segments mapped), so a cached
	// range at the current version can never cover unmapped addresses.
	// The zero value is invalid (hi == 0 admits no address), which is why
	// Fork need not copy these.
	fastRLo, fastRHi uint64
	fastRVer         int
	fastWLo, fastWHi uint64
	fastWVer         int
}

// New creates an address space with the given layout and reserves the text,
// read-only data, data, heap and stack VMAs. textSize and dataSize are
// rounded up to whole pages.
func New(l Layout) *AddressSpace {
	as := &AddressSpace{
		layout:    l,
		pages:     make(map[uint64]*page),
		allocs:    make(map[uint64]uint64),
		mmapNext:  l.MmapBase,
		snapshots: make(map[int][]VMA),
	}
	stackStart := l.StackTop - uint64(l.InitialStackPages)*PageSize
	as.vmas = []VMA{
		{Start: l.TextBase, End: l.TextBase + 16*PageSize, Perm: PermRead | PermExec, Kind: SegText},
		{Start: l.RODataBase, End: l.RODataBase + 16*PageSize, Perm: PermRead, Kind: SegROData},
		{Start: l.DataBase, End: l.DataBase + 16*PageSize, Perm: PermRead | PermWrite, Kind: SegData},
		{Start: l.HeapBase, End: l.HeapBase, Perm: PermRead | PermWrite, Kind: SegHeap},
		{Start: stackStart, End: l.StackTop, Perm: PermRead | PermWrite, Kind: SegStack},
	}
	as.sp = l.StackTop - 16 // small bias like the kernel's initial frame
	as.brk = l.HeapBase
	as.bump()
	return as
}

// Layout returns the layout the address space was created with.
func (as *AddressSpace) Layout() Layout { return as.layout }

func (as *AddressSpace) bump() {
	as.version++
	cp := make([]VMA, len(as.vmas))
	copy(cp, as.vmas)
	as.snapshots[as.version] = cp
}

// Version returns the current VMA-table version.
func (as *AddressSpace) Version() int { return as.version }

// SnapshotAt returns the VMA table as of the given version. The returned
// slice must not be modified.
func (as *AddressSpace) SnapshotAt(version int) []VMA { return as.snapshots[version] }

// Snapshots returns the full version -> VMA-table history of the address
// space. The returned map and slices must not be modified.
func (as *AddressSpace) Snapshots() map[int][]VMA { return as.snapshots }

// EnsureSegmentSize grows the VMA of the given kind to hold at least size
// bytes from its start, rounding up to whole pages. Used by the program
// loader to fit globals into the data segments.
func (as *AddressSpace) EnsureSegmentSize(kind SegKind, size uint64) {
	end := uint64(0)
	for i := range as.vmas {
		if as.vmas[i].Kind == kind {
			end = as.vmas[i].Start + (size+PageSize-1)&^(PageSize-1)
			if end > as.vmas[i].End {
				as.vmas[i].End = end
				if kind == SegHeap && end > as.brk {
					as.brk = end
				}
				as.bump()
			}
			return
		}
	}
}

// VMAs returns a copy of the current VMA table.
func (as *AddressSpace) VMAs() []VMA {
	cp := make([]VMA, len(as.vmas))
	copy(cp, as.vmas)
	return cp
}

// SP returns the current simulated stack pointer.
func (as *AddressSpace) SP() uint64 { return as.sp }

// SetSP sets the simulated stack pointer (used when entering/leaving
// frames).
func (as *AddressSpace) SetSP(sp uint64) { as.sp = sp }

func (as *AddressSpace) findVMA(addr uint64) (int, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Contains(addr) {
		return i, true
	}
	return i, false
}

// stackVMA returns the index of the stack VMA.
func (as *AddressSpace) stackVMA() int {
	for i := range as.vmas {
		if as.vmas[i].Kind == SegStack {
			return i
		}
	}
	return -1
}

// Resolve decides whether an access to addr is legal under a given VMA
// table and stack pointer, applying Linux's stack-extension rule when
// stackRule is true: an access below the stack VMA is still legal when it is
// no lower than sp - StackGuardGap and the resulting stack stays within
// rlimit. It returns the valid address range [lo, hi) that governs addr —
// the range the propagation model turns into crash-bit ranges — and whether
// the access itself is legal.
//
// Resolve is a pure function of its arguments so the crash model can call it
// on recorded snapshots without touching a live address space.
func Resolve(vmas []VMA, sp uint64, stackTop, stackRLimit uint64, addr uint64, write, stackRule bool) (lo, hi uint64, ok bool) {
	floor := stackTop - stackRLimit
	// stackLo is the lowest address a stack-governed access may touch: the
	// guard window below SP, clamped by the rlimit (paper Alg. 3 lines
	// 6-9). Without the stack rule the naive model allows only the mapped
	// VMA itself.
	stackLo := func(vmaStart uint64) uint64 {
		if !stackRule {
			return vmaStart
		}
		lo := floor
		if guard := sp - StackGuardGap; guard > lo {
			lo = guard
		}
		if vmaStart < lo {
			// Already-mapped pages below the guard never fault.
			lo = vmaStart
		}
		return lo
	}
	var stack *VMA
	for i := range vmas {
		v := &vmas[i]
		if v.Kind == SegStack {
			stack = v
		}
		if v.Contains(addr) {
			if write && v.Perm&PermWrite == 0 {
				return v.Start, v.End, false
			}
			if v.Kind == SegStack {
				return stackLo(v.Start), v.End, true
			}
			return v.Start, v.End, true
		}
	}
	// Not inside any VMA. The only rescue is the growable stack.
	if stack != nil && addr < stack.Start {
		lo := stackLo(stack.Start)
		if stackRule && addr >= lo {
			return lo, stack.End, true
		}
		return lo, stack.End, false
	}
	return 0, 0, false
}

// ValidRange returns the [lo, hi) range of addresses around addr that would
// not fault, given a VMA snapshot and stack pointer. For an addr governed by
// the stack it accounts for the extension rule. ok is false when addr
// itself would fault.
func (as *AddressSpace) ValidRange(addr uint64, write bool) (lo, hi uint64, ok bool) {
	return Resolve(as.vmas, as.sp, as.layout.StackTop, as.layout.StackRLimit, addr, write, true)
}

// CheckAccess validates an access of size bytes at addr, growing the stack
// if Linux would. It returns nil when legal and an *AccessError otherwise.
func (as *AddressSpace) CheckAccess(addr uint64, size int64, write bool) error {
	if size <= 0 {
		size = 1
	}
	last := addr + uint64(size) - 1
	for _, a := range []uint64{addr, last} {
		if err := as.checkOne(a, size, write); err != nil {
			return err
		}
	}
	return nil
}

func (as *AddressSpace) checkOne(addr uint64, size int64, write bool) error {
	if i, ok := as.findVMA(addr); ok {
		if write && as.vmas[i].Perm&PermWrite == 0 {
			return &AccessError{Addr: addr, Size: size, Write: write, Reason: "write to read-only"}
		}
		return nil
	}
	// Stack extension path.
	si := as.stackVMA()
	if si >= 0 && addr < as.vmas[si].Start {
		floor := as.layout.StackTop - as.layout.StackRLimit
		guard := as.sp - StackGuardGap
		switch {
		case addr < floor:
			return &AccessError{Addr: addr, Size: size, Write: write, Reason: "stack rlimit"}
		case addr < guard:
			return &AccessError{Addr: addr, Size: size, Write: write, Reason: "below stack guard"}
		default:
			newStart := addr &^ (PageSize - 1)
			as.vmas[si].Start = newStart
			as.bump()
			return nil
		}
	}
	return &AccessError{Addr: addr, Size: size, Write: write, Reason: "unmapped"}
}

// writablePage returns a page for addr that this address space owns
// exclusively, materializing a zero page or performing the copy-on-write
// fault as needed.
//
// The refcount protocol makes concurrent forks and writes safe without a
// lock: every address space holds one reference per page it maps, a page
// is only ever forked from a frozen (never-written) address space, and
// that space keeps its own reference for as long as it lives. A load of 1
// therefore proves sole ownership — no frozen space references the page,
// so no concurrent Fork can be incrementing it.
func (as *AddressSpace) writablePage(addr uint64) *page {
	key := addr / PageSize
	p := as.pages[key]
	if p == nil {
		p = newPage()
		as.pages[key] = p
		as.dirtied++
		return p
	}
	if p.refs.Load() > 1 {
		cp := newPage()
		cp.data = p.data
		p.refs.Add(-1)
		as.pages[key] = cp
		as.dirtied++
		return cp
	}
	return p
}

// WriteBytes copies b into memory at addr. The caller must have validated
// the access.
func (as *AddressSpace) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := as.writablePage(addr)
		off := addr % PageSize
		n := copy(p.data[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies n bytes at addr into a fresh slice. Unwritten bytes
// read as zero; reads never materialize pages, so forked address spaces
// stay sparse.
func (as *AddressSpace) ReadBytes(addr uint64, n int64) []byte {
	out := make([]byte, n)
	as.readInto(out, addr)
	return out
}

// readInto copies len(dst) bytes at addr into dst.
func (as *AddressSpace) readInto(dst []byte, addr uint64) {
	for len(dst) > 0 {
		off := addr % PageSize
		c := uint64(PageSize - off)
		if c > uint64(len(dst)) {
			c = uint64(len(dst))
		}
		if p := as.pages[addr/PageSize]; p != nil {
			copy(dst[:c], p.data[off:off+c])
		}
		dst = dst[c:]
		addr += c
	}
}

// Fork returns a copy-on-write clone of the address space: VMA table,
// registers of the allocator (sp, brk, mmap cursor), allocation metadata
// and the VMA version history are copied; data pages are shared with their
// refcounts incremented, so the fork costs O(mapped pages) pointer copies
// and no page data moves until one side writes.
//
// Fork must only be called on an address space that is no longer written
// (a frozen snapshot) or from the goroutine that owns it; the returned
// clone is independently writable.
func (as *AddressSpace) Fork() *AddressSpace {
	cp := &AddressSpace{
		layout:    as.layout,
		vmas:      append([]VMA(nil), as.vmas...),
		pages:     make(map[uint64]*page, len(as.pages)),
		sp:        as.sp,
		brk:       as.brk,
		mmapNext:  as.mmapNext,
		allocs:    make(map[uint64]uint64, len(as.allocs)),
		version:   as.version,
		snapshots: make(map[int][]VMA, len(as.snapshots)),
	}
	for k, p := range as.pages {
		p.refs.Add(1)
		cp.pages[k] = p
	}
	for k, v := range as.allocs {
		cp.allocs[k] = v
	}
	for k, v := range as.snapshots {
		cp.snapshots[k] = v // VMA history slices are immutable once recorded
	}
	return cp
}

// DirtyPages returns the number of pages privately materialized or
// copy-on-write faulted in this address space since it was created (or
// forked). Observability for the snapshot subsystem.
func (as *AddressSpace) DirtyPages() int64 { return as.dirtied }

var zeroPageData [PageSize]byte

func pageEqual(a, b *page) bool {
	switch {
	case a == b:
		return true
	case a == nil:
		return b.data == zeroPageData
	case b == nil:
		return a.data == zeroPageData
	default:
		return a.data == b.data
	}
}

// Equal reports whether two address spaces are observably identical: same
// layout, VMA table, stack pointer, heap state, allocation metadata,
// version history position, and byte-for-byte page contents (an absent
// page equals an all-zero page). Shared COW pages compare by pointer, so
// comparing a run against a snapshot it was forked from costs O(pages
// diverged), not O(memory).
func (as *AddressSpace) Equal(other *AddressSpace) bool {
	if as.layout != other.layout || as.sp != other.sp || as.brk != other.brk ||
		as.mmapNext != other.mmapNext || as.version != other.version {
		return false
	}
	if len(as.vmas) != len(other.vmas) {
		return false
	}
	for i := range as.vmas {
		if as.vmas[i] != other.vmas[i] {
			return false
		}
	}
	if len(as.allocs) != len(other.allocs) {
		return false
	}
	for k, v := range as.allocs {
		if ov, ok := other.allocs[k]; !ok || ov != v {
			return false
		}
	}
	for k, p := range as.pages {
		if !pageEqual(p, other.pages[k]) {
			return false
		}
	}
	for k, p := range other.pages {
		if _, ok := as.pages[k]; !ok && !pageEqual(nil, p) {
			return false
		}
	}
	return true
}

// WriteUint stores the low size bytes of v at addr, little-endian.
func (as *AddressSpace) WriteUint(addr uint64, size int64, v uint64) {
	var buf [8]byte
	for i := int64(0); i < size; i++ {
		buf[i] = byte(v >> (8 * uint(i)))
	}
	as.WriteBytes(addr, buf[:size])
}

// ReadUint loads size bytes at addr little-endian into the low bits of the
// result.
func (as *AddressSpace) ReadUint(addr uint64, size int64) uint64 {
	var buf [8]byte // bytes past the eighth shift out of the result
	b := buf[:min(max(size, 0), 8)]
	as.readInto(b, addr)
	var v uint64
	for i, x := range b {
		v |= uint64(x) << (8 * uint(i))
	}
	return v
}

// LoadFast validates and performs a little-endian load in one pass. It is
// observably identical to CheckAccess(addr, size, false) followed by
// ReadUint, but skips the binary VMA search when the access lands in the
// same segment as the last fast load at an unchanged VMA version, and
// reads page bytes in place instead of through an allocated slice. Loads
// never require read permission (checkOne does not test it), so a cache
// hit needs only a bounds check.
func (as *AddressSpace) LoadFast(addr uint64, size int64) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	last := addr + uint64(size) - 1
	if !(as.fastRVer == as.version && addr >= as.fastRLo && last < as.fastRHi && last >= addr) {
		if err := as.CheckAccess(addr, size, false); err != nil {
			return 0, err
		}
		// CheckAccess may have grown the stack (and bumped version), so
		// re-resolve the governing VMA for the refreshed cache entry.
		if i, ok := as.findVMA(addr); ok && last < as.vmas[i].End {
			as.fastRLo, as.fastRHi, as.fastRVer = as.vmas[i].Start, as.vmas[i].End, as.version
		}
	}
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		var v uint64
		if p := as.pages[addr/PageSize]; p != nil {
			for i := int64(0); i < size; i++ {
				v |= uint64(p.data[off+uint64(i)]) << (8 * uint(i))
			}
		}
		return v, nil
	}
	return as.ReadUint(addr, size), nil
}

// StoreFast validates and performs a little-endian store in one pass —
// the write counterpart of LoadFast. The cached range is only installed
// for writable VMAs, so a hit implies write permission.
func (as *AddressSpace) StoreFast(addr uint64, size int64, v uint64) error {
	if size <= 0 {
		size = 1
	}
	last := addr + uint64(size) - 1
	if !(as.fastWVer == as.version && addr >= as.fastWLo && last < as.fastWHi && last >= addr) {
		if err := as.CheckAccess(addr, size, true); err != nil {
			return err
		}
		if i, ok := as.findVMA(addr); ok && last < as.vmas[i].End && as.vmas[i].Perm&PermWrite != 0 {
			as.fastWLo, as.fastWHi, as.fastWVer = as.vmas[i].Start, as.vmas[i].End, as.version
		}
	}
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		p := as.writablePage(addr)
		for i := int64(0); i < size; i++ {
			p.data[off+uint64(i)] = byte(v >> (8 * uint(i)))
		}
		return nil
	}
	as.WriteUint(addr, size, v)
	return nil
}

// MmapThreshold is the allocation size above which Malloc places the block
// in the mmap arena instead of growing the brk heap, as glibc does
// (M_MMAP_THRESHOLD, 128 KiB by default).
const MmapThreshold = 128 << 10

// Malloc allocates size bytes (16-byte aligned) and returns the block
// address. Small blocks grow the heap VMA brk-style; blocks of
// MmapThreshold bytes or more get their own page-aligned mapping in the
// mmap arena, so large allocations live in a separate segment with its own
// boundaries — exactly the segment diversity the crash model must handle.
func (as *AddressSpace) Malloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	const align = 16
	size = (size + align - 1) &^ (align - 1)
	if size >= MmapThreshold {
		return as.mmapAlloc(size)
	}
	addr := as.brk
	as.brk += size
	for i := range as.vmas {
		if as.vmas[i].Kind == SegHeap {
			newEnd := (as.brk + PageSize - 1) &^ (PageSize - 1)
			if newEnd != as.vmas[i].End {
				as.vmas[i].End = newEnd
				as.bump()
			}
			break
		}
	}
	as.allocs[addr] = size
	return addr, nil
}

// mmapAlloc creates a dedicated VMA for a large allocation, with an
// unmapped guard page between neighbours (so off-by-one overruns fault,
// like real mmap'd blocks).
func (as *AddressSpace) mmapAlloc(size uint64) (uint64, error) {
	addr := as.mmapNext
	mapped := (size + PageSize - 1) &^ (PageSize - 1)
	as.mmapNext += mapped + PageSize // guard page
	as.vmas = append(as.vmas, VMA{
		Start: addr,
		End:   addr + mapped,
		Perm:  PermRead | PermWrite,
		Kind:  SegMmap,
	})
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	as.bump()
	as.allocs[addr] = size
	return addr, nil
}

// Free releases a block previously returned by Malloc. Freeing an unknown
// address returns an error (the interpreter maps it to the Abort exception,
// like glibc's "invalid pointer" abort).
func (as *AddressSpace) Free(addr uint64) error {
	if _, ok := as.allocs[addr]; !ok {
		return fmt.Errorf("free of unallocated address %#x", addr)
	}
	delete(as.allocs, addr)
	return nil
}

// AllocSize returns the size of the malloc block at addr, if any.
func (as *AddressSpace) AllocSize(addr uint64) (uint64, bool) {
	s, ok := as.allocs[addr]
	return s, ok
}

// PushFrame reserves size bytes of stack (16-byte aligned) and returns the
// new frame base (the lowest address of the frame). It grows the stack VMA
// as the kernel would on a push; exceeding the rlimit returns an
// *AccessError.
func (as *AddressSpace) PushFrame(size uint64) (uint64, error) {
	const align = 16
	size = (size + align - 1) &^ (align - 1)
	newSP := as.sp - size
	floor := as.layout.StackTop - as.layout.StackRLimit
	if newSP < floor {
		return 0, &AccessError{Addr: newSP, Size: int64(size), Write: true, Reason: "stack rlimit"}
	}
	as.sp = newSP
	si := as.stackVMA()
	if si >= 0 && newSP < as.vmas[si].Start {
		as.vmas[si].Start = newSP &^ (PageSize - 1)
		as.bump()
	}
	return newSP, nil
}

// PopFrame restores the stack pointer saved before the matching PushFrame.
func (as *AddressSpace) PopFrame(oldSP uint64) { as.sp = oldSP }

// Maps renders the current VMA table in /proc/self/maps style — the
// interface the paper's run-time probe reads.
func (as *AddressSpace) Maps() string {
	s := ""
	for _, v := range as.vmas {
		s += v.String() + "\n"
	}
	return s
}
