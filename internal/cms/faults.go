package cms

import (
	"cms/internal/interp"
	"cms/internal/tcache"
	"cms/internal/vliw"
)

// handleFault is the recovery path of §3: the machine has already rolled
// back to the last committed boundary (cpu state restored, CommittedEIP set
// by the caller). Infrequent faults are simply absorbed by interpreting the
// region; recurring ones trigger adaptive retranslation.
func (e *Engine) handleFault(ent *tcache.Entry, out vliw.Outcome) {
	e.maybeQuarantine(ent)
	switch out.Fault {
	case vliw.FIRQ:
		// Deliver the pending interrupt at the consistent boundary (§3.3).
		// Interrupts never trigger adaptive retranslation.
		res := e.Interp.Step()
		e.Metrics.MolsInterp += res.Cost
		if res.Stop == interp.StopError {
			e.err = res.Err
		}
		if res.IRQ {
			e.Metrics.Interrupts++
			e.trace(EvIRQ, e.Interp.CPU.EIP, "")
		}
		if res.Retired {
			e.Metrics.GuestInterp++
		}
		return
	case vliw.FBadCode:
		e.err = out.Err
		return
	}

	// Re-execute the region's instructions in the interpreter, observing
	// whether the hardware fault was genuine (§3.2).
	genuine := e.interpretRegion(ent, out)

	if out.Fault == vliw.FGuest {
		if genuine {
			e.Metrics.GenuineGuestFaults++
		} else {
			e.Metrics.SpecGuestFaults++
			ent.SpecGuestFaults++
		}
	}

	if e.shouldAdapt(ent, out, genuine) {
		e.adapt(ent, out, genuine)
	}
}

// maybeQuarantine poisons a shared artifact's content key when one installed
// copy of it has absorbed RollbackStormThreshold rollback faults — a rollback
// storm. Every fault class in this engine recovers by rolling back to the
// committed boundary, so the per-entry fault counters ARE the storm signal.
// Poisoning fires exactly once, at the crossing, and is wall-clock-only: the
// other VMs simply translate the region privately until the TTL lapses, so
// one artifact that keeps blowing up cannot keep cascading across the farm.
func (e *Engine) maybeQuarantine(ent *tcache.Entry) {
	th := e.Cfg.RollbackStormThreshold
	if th == 0 || e.Cfg.SharedStore == nil || !ent.T.HasSharedKey {
		return
	}
	var total uint32
	for _, n := range ent.FaultCounts {
		total += n
	}
	if total == th {
		e.Cfg.SharedStore.Poison(ent.T.SharedKey, tcache.DefaultPoisonTTL)
		e.trace(EvInvalidate, ent.T.Entry, "rollback storm: shared key quarantined")
	}
}

// shouldAdapt applies the fault-frequency threshold.
func (e *Engine) shouldAdapt(ent *tcache.Entry, out vliw.Outcome, genuine bool) bool {
	switch out.Fault {
	case vliw.FGuest:
		if genuine {
			return genuineGuestFaults(ent) >= e.Cfg.FaultThreshold
		}
		return ent.SpecGuestFaults >= e.Cfg.FaultThreshold
	case vliw.FProt:
		// Protection faults are handled by the SMC machinery during
		// re-interpretation, not by policy adaptation.
		return false
	default:
		return ent.FaultCounts[out.Fault] >= e.Cfg.FaultThreshold
	}
}

// genuineGuestFaults approximates per-entry genuine-fault counting: the
// entry's guest-fault count minus its speculative share.
func genuineGuestFaults(ent *tcache.Entry) uint32 {
	total := ent.FaultCounts[vliw.FGuest]
	if ent.SpecGuestFaults >= total {
		return 0
	}
	return total - ent.SpecGuestFaults
}

// adapt performs adaptive retranslation (§3.2-§3.5): it advances the
// entry's site policy ladder for the fault class and invalidates the
// translation so the next dispatch rebuilds it conservatively.
func (e *Engine) adapt(ent *tcache.Entry, out vliw.Outcome, genuine bool) {
	s := e.site(ent.T.Entry)
	e.Metrics.Adaptations[out.Fault]++
	e.traceFault(EvAdapt, ent.T.Entry, out.Fault)

	var insnAddr uint32
	if out.GIdx >= 0 && out.GIdx < len(ent.T.Insns) {
		insnAddr = ent.T.Insns[out.GIdx].Addr
	}

	if out.Fault == vliw.FGuest && genuine {
		// Narrow the region around the faulting instruction (§3.2): the
		// preceding instructions keep a large, aggressive region; the
		// faulter eventually stands alone and is interpreted.
		switch {
		case out.GIdx <= 0:
			s.interpOnly = true
		default:
			s.policy.MaxInsns = out.GIdx
		}
	} else {
		s.adaptClass(out.Fault, insnAddr, len(ent.T.Insns))
	}
	e.Cache.Invalidate(ent)
	e.reconcileProtection(ent)
}

// interpretRegion re-executes the faulting translation's instructions in
// the interpreter, from the committed boundary until control leaves the
// region (or a step bound, for loop regions). It reports whether a genuine
// guest exception of the faulting class was delivered.
func (e *Engine) interpretRegion(ent *tcache.Entry, out vliw.Outcome) bool {
	genuine := false
	limit := len(ent.T.Insns) + 8
	for i := 0; i < limit; i++ {
		if e.Interp.CPU.Halted || e.err != nil {
			break
		}
		if !ent.T.Covers(e.Interp.CPU.EIP) {
			break
		}
		res := e.Interp.Step()
		e.Metrics.MolsInterp += res.Cost
		switch res.Stop {
		case interp.StopError:
			e.err = res.Err
			return genuine
		case interp.StopProt:
			e.resolveProt(res.Prot.Addr, res.Prot.Size)
			continue
		}
		if res.Retired {
			e.Metrics.GuestInterp++
		}
		if res.IRQ {
			e.Metrics.Interrupts++
		}
		if out.Fault == vliw.FGuest && res.Vector == out.GuestVec && !res.IRQ && res.Vector >= 0 {
			genuine = true
			// The exception handler now runs; control left the region.
			break
		}
	}
	return genuine
}
