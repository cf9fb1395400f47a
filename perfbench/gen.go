package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// sourceRAM and sourceStack match what the farm gives a source job.
const (
	sourceRAM   = 1 << 21
	sourceStack = sourceRAM / 2
)

// genSource returns a g86 program unique to (seed, idx): two hot loops whose
// constants and ALU sequence come from the seed, then a checksum printed on
// the console. Unique source bytes give unique translation keys, so these
// jobs miss the farm's shared store where suite jobs hit it.
func genSource(seed uint64, idx int) string {
	r := rand.New(rand.NewSource(int64(seed*1_000_003) + int64(idx)))
	regs := []string{"eax", "ebx", "edx", "edi"}
	reg := func() string { return regs[r.Intn(len(regs))] }
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p(".org 0x1000")
	p("_start:")
	for _, rg := range regs {
		p("\tmov %s, %#x", rg, r.Uint32())
	}
	p("\tmov ecx, %d", 1500+r.Intn(1500))
	p("mix:")
	for i, n := 0, 4+r.Intn(5); i < n; i++ {
		switch r.Intn(6) {
		case 0:
			p("\tadd %s, %s", reg(), reg())
		case 1:
			p("\txor %s, %#x", reg(), r.Uint32())
		case 2:
			p("\timul %s, %d", reg(), 3+r.Intn(60))
		case 3:
			p("\tshr %s, %d", reg(), 1+r.Intn(7))
		case 4:
			p("\tmov [%#x], %s", 0x8000+4*r.Intn(64), reg())
		default:
			p("\tadd %s, [%#x]", reg(), 0x8000+4*r.Intn(64))
		}
	}
	p("\tdec ecx")
	p("\tjne mix")
	words := 256 + r.Intn(768)
	p("\tmov esi, 0x9000")
	p("\tmov ecx, %d", words)
	p("fill:")
	p("\tmov [esi], eax")
	p("\tadd eax, %#x", r.Uint32())
	p("\tadd esi, 4")
	p("\tdec ecx")
	p("\tjne fill")
	p("\tmov esi, 0x9000")
	p("\tmov ecx, %d", words)
	p("\tmov eax, 0")
	p("sum:")
	p("\tadd eax, [esi]")
	p("\tadd esi, 4")
	p("\tdec ecx")
	p("\tjne sum")
	p("\tmov ecx, 8")
	p("hex:")
	p("\tmov edx, eax")
	p("\tand edx, 15")
	p("\tadd edx, 65")
	p("\tout 0x3f8, edx")
	p("\tshr eax, 4")
	p("\tdec ecx")
	p("\tjne hex")
	p("\thlt")
	return b.String()
}

// Job classes, as farm.job_ms_p50.<class> reports them.
const (
	classSuite   = "suite"   // a named workload from the suite
	classSource  = "source"  // a generated g86 source
	classRestore = "restore" // a resumed mid-run snapshot
)

// share is one slice of a job mix: a class and how many jobs of each block
// of 100 it gets. Suite shares list the workloads they cycle through.
type share struct {
	class string
	per   int
	names []string
}

// planned is one job of a mix.
type planned struct {
	class string
	name  string // workload name for suite jobs
}

// deck deals jobs so that every block of 100 holds exactly each share's
// count, shuffled within the block. Exact shares keep the mix, and with it
// sim_mpi, the same from seed to seed; suite names are dealt in rotation so
// each workload's share is exact too.
type deck struct {
	mix  []share
	rng  *rand.Rand
	next []int // per share, the next suite name to deal
	buf  []planned
}

func newDeck(mix []share, rng *rand.Rand) *deck {
	return &deck{mix: mix, rng: rng, next: make([]int, len(mix))}
}

func (d *deck) draw() planned {
	if len(d.buf) == 0 {
		for i, s := range d.mix {
			for k := 0; k < s.per; k++ {
				j := planned{class: s.class}
				if s.class == classSuite {
					j.name = s.names[d.next[i]%len(s.names)]
					d.next[i]++
				}
				d.buf = append(d.buf, j)
			}
		}
		d.rng.Shuffle(len(d.buf), func(a, b int) { d.buf[a], d.buf[b] = d.buf[b], d.buf[a] })
	}
	j := d.buf[0]
	d.buf = d.buf[1:]
	return j
}
