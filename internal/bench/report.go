package bench

import (
	"fmt"
	"io"
)

// WriteFigure renders a degradation figure as the paper's bar-chart rows.
func WriteFigure(w io.Writer, f *FigureResult) {
	fmt.Fprintf(w, "%s\n", f.Title)
	fmt.Fprintf(w, "%-18s %6s  %14s %14s\n", "benchmark", "degr%", "base mols", "variant mols")
	kind := ""
	for _, r := range f.Rows {
		if k := r.Kind.String(); k != kind {
			kind = k
			fmt.Fprintf(w, "-- %ss --\n", kind)
		}
		fmt.Fprintf(w, "%-18s %6.2f  %14d %14d\n", r.Name, r.Percent, r.BaseMols, r.VariantMols)
	}
	fmt.Fprintf(w, "mean (all boots) %6.2f%%\n", f.MeanBoot)
	fmt.Fprintf(w, "mean (all apps)  %6.2f%%\n", f.MeanApp)
}

// WriteTable1 renders the fine-grain protection table.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: slowdown without fine-grain protection")
	fmt.Fprintf(w, "%-18s %10s %10s %8s %8s %8s %9s\n",
		"benchmark", "faults+fg", "faults-fg", "ratio", "mpi+fg", "mpi-fg", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10d %10d %7.1fx %8.2f %8.2f %8.2fx\n",
			r.Name, r.FaultsFG, r.FaultsNoFG, r.FaultRatio, r.MPIFG, r.MPINoFG, r.Slowdown)
	}
}

// WriteSelfCheck renders the §3.6.3 forced-self-checking data.
func WriteSelfCheck(w io.Writer, res *SelfCheckResult) {
	fmt.Fprintln(w, "Forced self-checking translations (§3.6.3)")
	fmt.Fprintf(w, "%-18s %12s %12s\n", "benchmark", "code +%", "molecules +%")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-18s %12.1f %12.1f\n", r.Name, r.CodeGrowth, r.MolGrowth)
	}
	fmt.Fprintf(w, "mean code size growth: %.1f%% (paper: 83%%)\n", res.MeanCode)
	fmt.Fprintf(w, "mean molecule growth:  %.1f%% (paper: 51%%)\n", res.MeanMols)
}

// WriteSelfReval renders the §3.6.2 Quake frame-rate comparison.
func WriteSelfReval(w io.Writer, r *SelfRevalResult) {
	fmt.Fprintln(w, "Self-revalidating translations on Quake Demo2 (§3.6.2)")
	fmt.Fprintf(w, "frames rendered:          %d\n", r.Frames)
	fmt.Fprintf(w, "frame rate with reval:    %.2f frames/Mmol\n", r.FrameRateWith)
	fmt.Fprintf(w, "frame rate without:       %.2f frames/Mmol\n", r.FrameRateWithout)
	fmt.Fprintf(w, "improvement:              %.1f%% (paper: 28%%)\n", r.Improvement)
	fmt.Fprintf(w, "prologue arms/passes:     %d/%d\n", r.ArmsWith, r.PassesWith)
}

// WriteFlow renders the Figure 1 transition counts.
func WriteFlow(w io.Writer, f *FlowResult) {
	m := &f.Metrics
	fmt.Fprintf(w, "Figure 1 control flow observed on %s\n", f.Workload)
	fmt.Fprintf(w, "interpreted instructions:      %d\n", m.GuestInterp)
	fmt.Fprintf(w, "translated instructions:       %d\n", m.GuestTexec)
	fmt.Fprintf(w, "translations made:             %d\n", m.Translations)
	fmt.Fprintf(w, "dispatch -> tcache entries:    %d\n", m.DispatchToTexec)
	fmt.Fprintf(w, "chained exits (no lookup):     %d\n", m.ChainTransfers)
	fmt.Fprintf(w, "exits via lookup:              %d\n", m.LookupTransfers)
	fmt.Fprintf(w, "exits back to dispatcher:      %d\n", m.DispatchReturns)
	fmt.Fprintf(w, "rollbacks (faults):            %d\n", totalFaults(m.Faults))
	fmt.Fprintf(w, "interrupts delivered:          %d\n", m.Interrupts)
}

func totalFaults(f [8]uint64) uint64 {
	var s uint64
	for _, v := range f {
		s += v
	}
	return s
}

// WriteChain renders the chaining comparison.
func WriteChain(w io.Writer, c *ChainResult) {
	fmt.Fprintf(w, "Chaining on %s (§2)\n", c.Workload)
	fmt.Fprintf(w, "molecules with chaining:    %d\n", c.MolsChained)
	fmt.Fprintf(w, "molecules without chaining: %d\n", c.MolsUnchained)
	fmt.Fprintf(w, "chain transfers:            %d\n", c.ChainTransfers)
	fmt.Fprintf(w, "lookups (chained run):      %d\n", c.LookupsChained)
	fmt.Fprintf(w, "lookups (unchained run):    %d\n", c.LookupsUnchained)
}

// WriteFaults renders the suite-wide fault mix.
func WriteFaults(w io.Writer, f *FaultMix) {
	fmt.Fprintln(w, "Fault mix across the full suite (default config)")
	fmt.Fprintf(w, "%-12s %10s %12s\n", "class", "faults", "adaptations")
	for i, n := range f.Names {
		if f.Faults[i] == 0 && f.Adaptations[i] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s %10d %12d\n", n, f.Faults[i], f.Adaptations[i])
	}
}

// WriteSimulated runs the experiments whose output is simulated Metrics
// alone, with no wall clock in it — fig2, fig3, table1, selfcheck,
// selfreval, flow, chain, ablate, hostgen and faults — and prints each one
// exp names ("all" for every one) in that order, followed by a blank line,
// as cmsbench prints them. wl is the flow, chain and ablate workload.
func WriteSimulated(w io.Writer, exp, wl string) error {
	for _, s := range simulatedSections(w, wl) {
		if exp != "all" && exp != s.name {
			continue
		}
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// SimulatedSections returns the experiment names WriteSimulated accepts
// besides "all", in report order.
func SimulatedSections() []string {
	var names []string
	for _, s := range simulatedSections(io.Discard, "") {
		names = append(names, s.name)
	}
	return names
}

// simSection is one named simulated experiment bound to its writer.
type simSection struct {
	name string
	run  func() error
}

func simulatedSections(w io.Writer, wl string) []simSection {
	return []simSection{
		{"fig2", section(w, Figure2, WriteFigure)},
		{"fig3", section(w, Figure3, WriteFigure)},
		{"table1", section(w, Table1, WriteTable1)},
		{"selfcheck", section(w, SelfCheck, WriteSelfCheck)},
		{"selfreval", section(w, SelfReval, WriteSelfReval)},
		{"flow", section(w, func() (*FlowResult, error) { return Flow(wl) }, WriteFlow)},
		{"chain", section(w, func() (*ChainResult, error) { return Chain(wl) }, WriteChain)},
		{"ablate", func() error {
			for _, f := range []func(string) (*AblationResult, error){
				AblateUnroll, AblateHotThreshold, AblateRegionCap, AblateFaultThreshold,
			} {
				r, err := f(wl)
				if err != nil {
					return err
				}
				WriteAblation(w, r)
				fmt.Fprintln(w)
			}
			return nil
		}},
		{"hostgen", section(w, HostGenerations, WriteHostGen)},
		{"faults", section(w, Faults, WriteFaults)},
	}
}

// section pairs an experiment with its renderer.
func section[T any](w io.Writer, run func() (T, error), write func(io.Writer, T)) func() error {
	return func() error {
		r, err := run()
		if err != nil {
			return err
		}
		write(w, r)
		return nil
	}
}
