// Package tcache implements the translation cache: the indexed store of
// translations, the chaining machinery that lets hot code run entirely
// inside the cache (§2 of the paper, after Cmelik et al.), the reverse maps
// that invalidation needs when guest code pages change, the translation
// groups of §3.6.5, and capacity management for when the cache outgrows its
// budget: coldest-first eviction, with the whole-cache generational flush
// kept as the last resort.
package tcache

import (
	"sort"

	"cms/internal/mem"
	"cms/internal/xlate"
)

// Entry is one cached translation plus its runtime bookkeeping.
type Entry struct {
	T *xlate.Translation

	// Valid is cleared by invalidation; stale pointers held by callers must
	// check it before executing.
	Valid bool

	// chains[i] is the entry this translation's i-th exit has been chained
	// to (nil = unchained: the exit returns to the dispatcher).
	chains []*Entry
	// incoming records who chains to us, for unchaining on invalidation.
	incoming []chainRef

	// Execs counts completed executions (entries through the top).
	Execs uint64
	// FaultCounts counts faults per vliw.FaultClass observed while this
	// translation ran.
	FaultCounts [8]uint32
	// SpecGuestFaults counts guest-class faults that re-interpretation
	// proved speculative (the §3.2 distinction).
	SpecGuestFaults uint32

	// Armed marks a self-revalidating translation whose prologue must run
	// before the body (§3.6.2).
	Armed bool
	// SelfReval marks the translation as carrying a usable prologue.
	SelfReval bool

	// itc is the per-translation indirect-branch target cache: a tiny
	// inline cache from recent indirect-exit targets to their entries, so
	// hot indirect jumps (returns, dispatch tables) skip the dispatcher's
	// map lookup. Slots may hold invalidated entries; hits re-check Valid.
	itc [itcSlots]itcSlot

	// seq is the install order, used to reproduce the cache's internal
	// list orders exactly on snapshot restore (byPage order decides
	// invalidation order, which is observable in Stats).
	seq uint64
}

// itcSlots is the per-translation indirect target cache size. Indirect
// exits usually resolve to a handful of targets (a return site, a few
// dispatch-table cases); four direct-mapped slots capture most of them.
const itcSlots = 4

type itcSlot struct {
	target uint32
	to     *Entry
}

// IndirectTarget consults the entry's indirect target cache, returning the
// still-valid cached successor for target, or nil.
func (e *Entry) IndirectTarget(target uint32) *Entry {
	s := &e.itc[(target>>2)%itcSlots]
	if s.to != nil && s.target == target && s.to.Valid {
		return s.to
	}
	return nil
}

// CacheIndirect records target's entry in the indirect target cache.
func (e *Entry) CacheIndirect(target uint32, to *Entry) {
	e.itc[(target>>2)%itcSlots] = itcSlot{target: target, to: to}
}

type chainRef struct {
	from *Entry
	exit int
}

// Chained returns the chain target of an exit, or nil. Invalidated entries
// report no chains in either direction: a torn-down translation must never
// lead to — or from — executable (possibly compiled) code.
func (e *Entry) Chained(exit int) *Entry {
	if e.Valid && exit < len(e.chains) {
		if t := e.chains[exit]; t != nil && t.Valid {
			return t
		}
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Installs      uint64
	Lookups       uint64
	Hits          uint64
	Invalidations uint64
	ChainPatches  uint64
	Unchains      uint64
	Evictions     uint64
	Flushes       uint64
	GroupHits     uint64
	GroupRetires  uint64
}

// Cache is the translation cache.
type Cache struct {
	byEntry map[uint32]*Entry
	byPage  map[uint32][]*Entry

	// groups keeps retired translations per entry address for §3.6.5 reuse.
	groups   map[uint32][]*xlate.Translation
	groupCap int

	// CapAtoms bounds the total static code size; exceeding it flushes the
	// cache (the runtime system's "garbage collection for the translation
	// cache").
	CapAtoms int
	curAtoms int

	// nextSeq numbers installs, for snapshot-exact restore ordering.
	nextSeq uint64

	Stats Stats
}

// DefaultCapAtoms is the default code-size budget.
const DefaultCapAtoms = 1 << 20

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		byEntry:  make(map[uint32]*Entry),
		byPage:   make(map[uint32][]*Entry),
		groups:   make(map[uint32][]*xlate.Translation),
		groupCap: 40, // the paper saw up to 33 live versions in the 9x BLT driver
		CapAtoms: DefaultCapAtoms,
	}
}

// Lookup finds a valid entry by guest address.
func (c *Cache) Lookup(eip uint32) *Entry {
	c.Stats.Lookups++
	e := c.byEntry[eip]
	if e == nil || !e.Valid {
		return nil
	}
	c.Stats.Hits++
	return e
}

// Peek is Lookup without statistics (for tests and reporting).
func (c *Cache) Peek(eip uint32) *Entry {
	e := c.byEntry[eip]
	if e == nil || !e.Valid {
		return nil
	}
	return e
}

// Install adds a translation, replacing any previous entry at the same
// address, and returns its entry. If the code budget is exceeded, cold
// translations are evicted first; only when that would empty the cache does
// the whole-cache generational flush of real CMS kick in.
func (c *Cache) Install(t *xlate.Translation) *Entry {
	if c.CapAtoms > 0 && c.curAtoms+t.CodeAtoms() > c.CapAtoms {
		c.makeRoom(t.CodeAtoms())
	}
	if old := c.byEntry[t.Entry]; old != nil && old.Valid {
		c.invalidate(old, false)
	}
	e := &Entry{T: t, Valid: true, chains: make([]*Entry, len(t.Exits)), seq: c.nextSeq}
	c.nextSeq++
	c.byEntry[t.Entry] = e
	for _, p := range t.Pages() {
		c.byPage[p] = append(c.byPage[p], e)
	}
	c.curAtoms += t.CodeAtoms()
	c.Stats.Installs++
	return e
}

// makeRoom frees space for `need` atoms by invalidating the coldest
// translations (fewest completed executions; ties broken by entry address
// so the choice is deterministic despite map iteration order). Victims
// retire into their groups like any other invalidation, so re-hot code can
// be revived by §3.6.5 reuse. If fitting the new code would evict every
// entry, the whole-cache flush does the same job in one cheap reset.
func (c *Cache) makeRoom(need int) {
	type cand struct {
		execs uint64
		entry uint32
		e     *Entry
	}
	cands := make([]cand, 0, len(c.byEntry))
	for _, e := range c.byEntry {
		if e.Valid {
			cands = append(cands, cand{execs: e.Execs, entry: e.T.Entry, e: e})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].execs != cands[j].execs {
			return cands[i].execs < cands[j].execs
		}
		return cands[i].entry < cands[j].entry
	})
	free := 0
	if c.CapAtoms > c.curAtoms {
		free = c.CapAtoms - c.curAtoms
	}
	n := 0
	for ; n < len(cands) && free < need; n++ {
		free += cands[n].e.T.CodeAtoms()
	}
	if n >= len(cands) {
		c.Flush()
		return
	}
	for _, v := range cands[:n] {
		c.invalidate(v.e, true)
		c.Stats.Evictions++
	}
}

// Chain links exit of from to target, so the dispatcher is skipped next
// time.
func (c *Cache) Chain(from *Entry, exit int, to *Entry) {
	if !from.Valid || !to.Valid || exit >= len(from.chains) || from.chains[exit] != nil {
		return
	}
	from.chains[exit] = to
	to.incoming = append(to.incoming, chainRef{from: from, exit: exit})
	c.Stats.ChainPatches++
}

// invalidate removes an entry. retire controls whether the translation is
// kept in its entry's group for possible §3.6.5 reuse.
func (c *Cache) invalidate(e *Entry, retire bool) {
	if !e.Valid {
		return
	}
	e.Valid = false
	c.Stats.Invalidations++
	c.curAtoms -= e.T.CodeAtoms()
	// Unchain incoming edges.
	for _, ref := range e.incoming {
		if ref.from.Valid && ref.from.chains[ref.exit] == e {
			ref.from.chains[ref.exit] = nil
			c.Stats.Unchains++
		}
	}
	e.incoming = nil
	// Our own outgoing chains die with us (we are unreachable).
	if c.byEntry[e.T.Entry] == e {
		delete(c.byEntry, e.T.Entry)
	}
	for _, p := range e.T.Pages() {
		list := c.byPage[p]
		for i, x := range list {
			if x == e {
				c.byPage[p] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(c.byPage[p]) == 0 {
			delete(c.byPage, p)
		}
	}
	if retire {
		// Retired translations keep their compiled code: §3.6.5 group reuse
		// reinstalls the same *Translation only after SourceMatches, so the
		// compiled form is still valid and reinstall stays cheap.
		g := c.groups[e.T.Entry]
		if len(g) < c.groupCap {
			c.groups[e.T.Entry] = append(g, e.T)
			c.Stats.GroupRetires++
		}
	} else {
		// Replaced in place and not retired: this translation can never be
		// dispatched again, so drop the compiled form eagerly. Anything
		// still holding the entry sees Valid==false and re-dispatches; it
		// must never reach stale compiled closures.
		e.T.Compiled = nil
	}
}

// Invalidate removes a specific entry (retiring it into its group).
func (c *Cache) Invalidate(e *Entry) { c.invalidate(e, true) }

// InvalidatePage removes every translation with source bytes on the page,
// returning how many were invalidated.
func (c *Cache) InvalidatePage(page uint32) int {
	list := append([]*Entry(nil), c.byPage[page]...)
	for _, e := range list {
		c.invalidate(e, true)
	}
	return len(list)
}

// InvalidateRange removes translations whose source bytes intersect
// [addr, addr+n), returning them for the caller's adaptive bookkeeping.
func (c *Cache) InvalidateRange(addr uint32, n int) []*Entry {
	var hit []*Entry
	for p := mem.PageOf(addr); p <= mem.PageOf(addr+uint32(n)-1); p++ {
		for _, e := range c.byPage[p] {
			if e.Valid && e.T.CoversRange(addr, n) {
				hit = append(hit, e)
			}
		}
	}
	for _, e := range hit {
		c.invalidate(e, true)
	}
	return hit
}

// Overlapping returns the valid entries whose source intersects the range,
// without invalidating.
func (c *Cache) Overlapping(addr uint32, n int) []*Entry {
	var hit []*Entry
	for p := mem.PageOf(addr); p <= mem.PageOf(addr+uint32(n)-1); p++ {
		for _, e := range c.byPage[p] {
			if e.Valid && e.T.CoversRange(addr, n) {
				hit = append(hit, e)
			}
		}
	}
	return hit
}

// PageEntries returns the valid entries with source bytes on a page.
func (c *Cache) PageEntries(page uint32) []*Entry {
	return c.byPage[page]
}

// PageChunkMask returns the fine-grain chunk mask of all translations on a
// page (the mask the §3.6.1 hardware cache needs installed).
func (c *Cache) PageChunkMask(page uint32) uint32 {
	var mask uint32
	for _, e := range c.byPage[page] {
		if !e.Valid {
			continue
		}
		mask |= e.T.Chunks()[page]
	}
	return mask
}

// GroupMatch searches the retired translations of an entry address for one
// whose source snapshot matches current memory (§3.6.5) and removes it from
// the group; the caller reinstalls it.
func (c *Cache) GroupMatch(entry uint32, bus *mem.Bus) *xlate.Translation {
	g := c.groups[entry]
	for i, t := range g {
		if t.SourceMatches(bus) {
			c.groups[entry] = append(append([]*xlate.Translation(nil), g[:i]...), g[i+1:]...)
			c.Stats.GroupHits++
			return t
		}
	}
	return nil
}

// GroupSize reports how many retired versions an entry address holds.
func (c *Cache) GroupSize(entry uint32) int { return len(c.groups[entry]) }

// Flush drops every entry (groups survive: they are snapshots, not code the
// dispatcher can reach).
func (c *Cache) Flush() {
	for _, e := range c.byEntry {
		e.Valid = false
	}
	c.byEntry = make(map[uint32]*Entry)
	c.byPage = make(map[uint32][]*Entry)
	c.curAtoms = 0
	c.Stats.Flushes++
}

// Size returns the number of valid entries and their total atoms.
func (c *Cache) Size() (entries, atoms int) {
	return len(c.byEntry), c.curAtoms
}
