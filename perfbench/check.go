package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/metrics"
	"strings"
	"time"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/workload"
)

// residue is how many bytes just below the final ESP the RAM comparison
// skips. An interrupt delivered at a different (but equally correct)
// boundary leaves a different dead frame there: win98_boot differs from
// its interpreter reference at 0xefff4-0xefff5 and quake_demo2 at 0xefff8,
// with registers and every other byte identical.
const residue = 16

// vmState is everything a run's correctness is judged on.
type vmState struct {
	regs    [guest.NumRegs]uint32
	eip     uint32
	flags   uint32
	halted  bool
	console string
	text    []byte
	ram     []byte // nil when the caller did not ask for it
	metrics cms.Metrics
}

// diffState compares got against want and returns "" when they agree, else
// the first difference. RAM is compared only when both sides carry it, and
// the residue window below the final ESP is skipped.
func diffState(want, got *vmState) string {
	switch {
	case want.halted != got.halted:
		return fmt.Sprintf("halted: want %v got %v", want.halted, got.halted)
	case want.regs != got.regs:
		return fmt.Sprintf("regs: want %08x got %08x", want.regs, got.regs)
	case want.eip != got.eip:
		return fmt.Sprintf("eip: want %#x got %#x", want.eip, got.eip)
	case want.flags != got.flags:
		return fmt.Sprintf("flags: want %#x got %#x", want.flags, got.flags)
	case want.console != got.console:
		return fmt.Sprintf("console: want %q got %q", want.console, got.console)
	case !bytes.Equal(want.text, got.text):
		return "console text buffer differs"
	}
	if want.ram == nil || got.ram == nil {
		return ""
	}
	if len(want.ram) != len(got.ram) {
		return fmt.Sprintf("ram size: want %d got %d", len(want.ram), len(got.ram))
	}
	hi := uint64(want.regs[guest.ESP])
	lo := uint64(0)
	if hi >= residue {
		lo = hi - residue
	}
	n := uint64(len(want.ram))
	lo, hi = min(lo, n), min(hi, n)
	if i := firstDiff(want.ram[:lo], got.ram[:lo]); i >= 0 {
		return fmt.Sprintf("ram[%#x]: want %02x got %02x", i, want.ram[i], got.ram[i])
	}
	if i := firstDiff(want.ram[hi:], got.ram[hi:]); i >= 0 {
		a := int(hi) + i
		return fmt.Sprintf("ram[%#x]: want %02x got %02x", a, want.ram[a], got.ram[a])
	}
	return ""
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// vm is one guest program ready to boot: a suite image or an assembled
// source (stackTop is then the ESP the farm seeds for sources).
type vm struct {
	name     string
	img      *workload.Image
	stackTop uint32
}

// vmTimes is the wall time of one run, split into VM build (platform, image
// load, engine) and the engine's Run, with the process CPU time and host
// heap allocation of the whole.
type vmTimes struct {
	buildNs, runNs int64
	cpuNs          float64
	allocBytes     uint64
}

func (t vmTimes) totalNs() int64 { return t.buildNs + t.runNs }

// runVM cold-boots p on a fresh VM under cfg and runs it to completion,
// recording a job span with the build and run calls as children. runSpan
// names the run (interp.run for the NoTranslate reference). The RAM image is
// copied out only when withRAM is set: the copy is the checker's cost, not
// the program's, so it falls outside the timed and allocation-counted part.
func runVM(tr *tracer, parent int32, p *vm, cfg cms.Config, runSpan string, withRAM bool) (*vmState, vmTimes, error) {
	var t vmTimes
	job := tr.begin("job", parent)
	a0, c0 := heapAllocs(), cpuTime()
	t0 := time.Now()
	sp := tr.begin("dev.NewPlatform", job)
	plat := dev.NewPlatform(p.img.RAM, p.img.Disk)
	plat.Bus.WriteRaw(p.img.Org, p.img.Data)
	tr.end(sp, 0)
	sp = tr.begin("cms.New", job)
	e := cms.New(plat, p.img.Entry, cfg)
	if p.stackTop != 0 {
		e.CPU().Regs[guest.ESP] = p.stackTop
	}
	tr.end(sp, 0)
	t1 := time.Now()
	sp = tr.begin(runSpan, job)
	err := e.Run(p.img.Budget)
	tr.end(sp, e.Metrics.GuestTotal())
	t2 := time.Now()
	t.cpuNs = cpuTime() - c0
	t.allocBytes = heapAllocs() - a0
	tr.end(job, e.Metrics.GuestTotal())
	t.buildNs, t.runNs = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	if err != nil {
		return nil, t, fmt.Errorf("%s: %w", p.name, err)
	}
	return capture(e, withRAM), t, nil
}

// capture reads a finished engine's state.
func capture(e *cms.Engine, withRAM bool) *vmState {
	cpu := e.CPU()
	st := &vmState{
		regs: cpu.Regs, eip: cpu.EIP, flags: cpu.Flags, halted: cpu.Halted,
		console: e.Plat.Console.OutputString(), text: e.Plat.Console.Text(),
		metrics: e.Metrics,
	}
	if withRAM {
		st.ram = e.Plat.Bus.ReadRaw(0, int(e.Plat.Bus.RAMSize()))
	}
	return st
}

// metricsDiff lists the Metrics fields that differ, "" when none do.
func metricsDiff(want, got cms.Metrics) string {
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	var out []string
	for i := 0; i < w.NumField(); i++ {
		if a, b := w.Field(i).Interface(), g.Field(i).Interface(); a != b {
			out = append(out, fmt.Sprintf("%s %v->%v", w.Type().Field(i).Name, a, b))
		}
	}
	return strings.Join(out, ", ")
}

// interpConfig is the reference configuration: pure interpretation.
func interpConfig() cms.Config {
	c := cms.DefaultConfig()
	c.NoTranslate = true
	return c
}

// heapAllocs is the process's cumulative heap allocation in bytes. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket every
// VM run.
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}
