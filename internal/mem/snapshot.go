package mem

import "fmt"

// PageData is one non-zero RAM page in a BusState.
type PageData struct {
	Index uint32 `json:"index"`
	Data  []byte `json:"data"`
}

// BusState is the serializable state of a Bus: sparse RAM (zero pages are
// omitted), per-page guest attributes, the CMS protection state, and the
// per-page modification generations. MMIO regions and port mappings are NOT
// part of the state — they are topology, re-created by whoever builds the
// platform — but the generations ARE, because cached decodings made before
// a snapshot must stay valid after restore exactly when they would have
// stayed valid without one.
type BusState struct {
	NumPages   uint32     `json:"num_pages"`
	Pages      []PageData `json:"pages"`
	Attrs      []Attr     `json:"attrs"`
	Protected  []bool     `json:"protected"`
	FineGrain  []bool     `json:"fine_grain"`
	FineMask   []uint32   `json:"fine_mask"`
	Gen        []uint64   `json:"gen"`
	FGCache    []uint32   `json:"fg_cache"`
	FGCacheCap int        `json:"fg_cache_cap"`
	Stats      BusStats   `json:"stats"`
}

// ExportState captures the bus into a BusState. Only backed pages are
// visited, and those that are zero-filled anyway are compressed away;
// everything else is copied, so the state is independent of later bus
// mutations.
func (b *Bus) ExportState() *BusState {
	s := &BusState{
		NumPages:   b.NumPages(),
		Attrs:      append([]Attr(nil), b.attrs...),
		Protected:  append([]bool(nil), b.protected...),
		FineGrain:  append([]bool(nil), b.fineGrain...),
		FineMask:   append([]uint32(nil), b.fineMask...),
		Gen:        append([]uint64(nil), b.gen...),
		FGCache:    append([]uint32(nil), b.fgCache...),
		FGCacheCap: b.fgCacheCap,
		Stats:      b.Stats,
	}
	for p, pg := range b.pages {
		if pg == nil || allZero(pg[:]) {
			continue
		}
		s.Pages = append(s.Pages, PageData{Index: uint32(p), Data: append([]byte(nil), pg[:]...)})
	}
	return s
}

// RestoreState overwrites the bus with a previously exported state. The bus
// must have the same RAM size the state was captured from. The whole state
// is validated first, so an error leaves the bus untouched. RAM is reset to
// unbacked pages and only the state's pages are backed. Generations are
// restored verbatim — NOT bumped — so content caches filled before capture
// remain exactly as valid as they were.
func (b *Bus) RestoreState(s *BusState) error {
	n := b.NumPages()
	if s.NumPages != n {
		return fmt.Errorf("mem: snapshot has %d pages, bus has %d", s.NumPages, n)
	}
	if uint32(len(s.Attrs)) != n || uint32(len(s.Protected)) != n ||
		uint32(len(s.FineGrain)) != n || uint32(len(s.FineMask)) != n ||
		uint32(len(s.Gen)) != n {
		return fmt.Errorf("mem: snapshot page-array lengths do not match %d pages", n)
	}
	seen := make([]bool, n)
	for _, pg := range s.Pages {
		if pg.Index >= n {
			return fmt.Errorf("mem: snapshot page %d beyond RAM (%d pages)", pg.Index, n)
		}
		if len(pg.Data) != PageSize {
			return fmt.Errorf("mem: snapshot page %d has %d bytes", pg.Index, len(pg.Data))
		}
		if seen[pg.Index] {
			return fmt.Errorf("mem: snapshot page %d appears twice", pg.Index)
		}
		seen[pg.Index] = true
	}
	clear(b.pages)
	for _, pg := range s.Pages {
		copy(b.backed(pg.Index)[:], pg.Data)
	}
	copy(b.attrs, s.Attrs)
	copy(b.protected, s.Protected)
	copy(b.fineGrain, s.FineGrain)
	copy(b.fineMask, s.FineMask)
	copy(b.gen, s.Gen)
	b.fgCache = append(b.fgCache[:0], s.FGCache...)
	if s.FGCacheCap > 0 {
		b.fgCacheCap = s.FGCacheCap
	}
	if len(b.fgCache) > b.fgCacheCap {
		b.fgCache = b.fgCache[:b.fgCacheCap]
	}
	b.Stats = s.Stats
	return nil
}

func allZero(p []byte) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}
