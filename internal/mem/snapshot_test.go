package mem

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestExportOmitsZeroPages backs pages by writing zeros to them, and by
// writing data and clearing it again, and requires the export to list only
// the page that still holds data.
func TestExportOmitsZeroPages(t *testing.T) {
	b := NewBus(1 << 16)
	b.Write32(5*PageSize, 0)
	b.WriteRaw(6*PageSize, make([]byte, PageSize))
	b.Write8(7*PageSize+9, 0x42)
	b.Write8(7*PageSize+9, 0)
	b.DMAWrite(8*PageSize+100, []byte{1, 2, 3})
	s := b.ExportState()
	if len(s.Pages) != 1 || s.Pages[0].Index != 8 {
		idx := make([]uint32, len(s.Pages))
		for i, pg := range s.Pages {
			idx[i] = pg.Index
		}
		t.Fatalf("exported pages %v, want [8]", idx)
	}
	r := NewBus(1 << 16)
	if err := r.RestoreState(s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.ReadRaw(0, 1<<16), b.ReadRaw(0, 1<<16)) {
		t.Fatal("restored RAM differs")
	}
	for p, pg := range r.pages {
		if pg != nil && p != 8 {
			t.Errorf("restore backed page %d, which the state does not carry", p)
		}
	}
}

// TestRestoreStateRejectsBeforeMutating feeds RestoreState malformed states
// whose first page entry is valid, and requires each to fail with the bus
// left exactly as it was: RAM, attributes, protection and generations.
func TestRestoreStateRejectsBeforeMutating(t *testing.T) {
	page := func(idx uint32, fill byte, n int) PageData {
		return PageData{Index: idx, Data: bytes.Repeat([]byte{fill}, n)}
	}
	cases := []struct {
		name  string
		edit  func(s *BusState)
		inErr string
	}{
		{"page beyond RAM", func(s *BusState) {
			s.Pages = []PageData{page(0, 7, PageSize), page(s.NumPages, 7, PageSize)}
		}, "beyond RAM"},
		{"short page", func(s *BusState) {
			s.Pages = []PageData{page(0, 7, PageSize), page(1, 7, PageSize-1)}
		}, "bytes"},
		{"duplicate page", func(s *BusState) {
			s.Pages = []PageData{page(0, 7, PageSize), page(3, 7, PageSize), page(0, 8, PageSize)}
		}, "twice"},
		{"page count", func(s *BusState) { s.NumPages++ }, "pages"},
		{"attr length", func(s *BusState) { s.Attrs = s.Attrs[:1] }, "lengths"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBus(1 << 16)
			b.WriteRaw(0x1000, []byte("resident data"))
			b.Protect(1)
			b.SetAttr(4, AttrPresent)
			wantState, wantRAM := b.ExportState(), b.ReadRaw(0, int(b.RAMSize()))

			bad := b.ExportState()
			bad.Gen[0] += 100
			bad.Protected[1] = false
			c.edit(bad)
			err := b.RestoreState(bad)
			if err == nil || !strings.Contains(err.Error(), c.inErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.inErr)
			}
			if !bytes.Equal(b.ReadRaw(0, int(b.RAMSize())), wantRAM) {
				t.Error("RAM changed")
			}
			if got := b.ExportState(); !reflect.DeepEqual(got, wantState) {
				t.Error("bus state changed")
			}
		})
	}
}
