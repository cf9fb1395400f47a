package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cms/internal/cms"
	"cms/internal/workload"
)

// TestEnvelopeGolden pins the exact bytes of win98_boot envelopes by their
// SHA-256, so a change to how RAM or any other state is exported cannot
// silently change the format. The digests were recorded before RAM became
// lazily backed.
//
// A budget stop inside a chain carries the parked transition (Resume) so
// that its continuation matches the uninterrupted run; envelopes from
// before that fix recorded no resume point there. The budget row therefore
// pins everything but the resume record, and requires the record itself to
// be the parked budget transition.
func TestEnvelopeGolden(t *testing.T) {
	w, err := workload.ByName("win98_boot")
	if err != nil {
		t.Fatal(err)
	}
	img := w.Build()
	cases := []struct {
		name   string
		budget uint64
		cancel uint64 // cancel at this retirement count; 0 for none
		sha    string
	}{
		{"halt", img.Budget, 0, "3182d2534c82f5008309587e72d7d4afb0d2f3fc76b90f6dbf02280940a1c3f9"},
		{"cancel", img.Budget, 300_000, "351a19bfa21ba389fa90b687250eb25fbe892a8b36794b3c5555e7194d0f6f03"},
		{"budget", 300_000, 0, "a003a9e75f38d064af14c5c3b657b0d73f76581f7491429a33aafabdff3f63d4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := cms.DefaultConfig()
			var e *cms.Engine
			if c.cancel > 0 {
				cfg.CancelQuantum = 1000
				cfg.Cancel = func() bool { return e.Metrics.GuestTotal() >= c.cancel }
			}
			e = newEngine(img, cfg)
			_ = e.Run(c.budget) // the envelope pins the outcome, whichever it is
			s, err := Capture(e)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "budget" {
				if r := s.Engine.Resume; !r.Valid || !r.Budget {
					t.Fatalf("budget stop parked no transition: %+v", r)
				}
				s.Engine.Resume = cms.ResumeState{}
			}
			blob, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != c.sha {
				t.Fatalf("envelope sha256 %x (%d bytes), want %s", sum, len(blob), c.sha)
			}
		})
	}
}
