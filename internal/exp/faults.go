package exp

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"fsoi/internal/config"
	"fsoi/internal/core"
	"fsoi/internal/fault"
	"fsoi/internal/stats"
	"fsoi/internal/system"
)

// defaultPenalties spans the interesting margin range: at 0 dB the
// Table 1 Q factor gives BER ~1e-10 (invisible), by 3.5 dB most data
// packets take at least one error and the protocol lives on
// retransmission. Beyond ~4 dB the corruption probability saturates
// near 1 and runs stop making forward progress, so the sweep stays
// below it.
var defaultPenalties = []float64{0, 1, 2, 2.5, 3, 3.5}

// Faults is the registered "faults" experiment: a margin-penalty sweep
// with a small background of VCSEL aging and confirmation drops, FSOI
// against the fault-immune mesh baseline. It is faultFlags' runner with
// no flag set.
func Faults(o Options) Result { return runAtDefaults(faultFlags, o) }

// faultFlags is the "faults" entry's Flags: the penalties to sweep and
// the background fault configuration every point shares. The background
// flags fill a config.FaultSpec, so cooling names and thermal defaults
// are the JSON schema's.
func faultFlags(fs *flag.FlagSet) func() (Runner, error) {
	penalties := fs.String("penalties", "", "faults: margin penalties to sweep, dB (default 0,1,2,2.5,3,3.5; 0,2,3.5 below -scale 0.2)")
	var spec config.FaultSpec
	fs.Float64Var(&spec.ConfirmDropProb, "confirm-drop", 0.01, "faults: confirmation-beam drop probability")
	fs.Float64Var(&spec.VCSELFailProb, "vcsel-fail", 0.02, "faults: per-VCSEL start-of-life failure probability")
	fs.Float64Var(&spec.DroopDBPerK, "droop", 0, "faults: thermal droop coefficient, dB/K (0 = off)")
	fs.StringVar(&spec.ThermalCooling, "cooling", "", "faults: cooling for the droop model: air | microchannel | diamond-spreader (needs -droop; default air)")
	fs.Float64Var(&spec.ThermalPowerW, "power", 0, "faults: per-node power fed to the thermal solver, W (needs -droop; default 4)")
	fs.Float64Var(&spec.ThermalTauCycles, "tau", 0, "faults: thermal ramp time constant, cycles (needs -droop; default 100000)")
	return func() (Runner, error) {
		pens, err := parseList(*penalties, func(f string) (float64, error) {
			v, err := strconv.ParseFloat(f, 64)
			if err == nil && v < 0 {
				err = fmt.Errorf("negative penalty %g", v)
			}
			return v, err
		})
		if err != nil {
			return nil, fmt.Errorf("bad -penalties: %v", err)
		}
		base, err := spec.Build()
		if err != nil {
			return nil, err
		}
		return func(o Options) Result { return faultSweep(o, pens, base) }, nil
	}
}

// faultSweep runs the FSOI system under the base fault configuration at
// each margin penalty and reports speedup over the (fault-immune) mesh,
// collision rates, the retransmission overhead, and the raw fault
// census. The same mesh baseline serves every penalty point: electrical
// wires do not lose link margin. No penalties means defaultPenalties.
func faultSweep(o Options, penalties []float64, base fault.Config) Result {
	if penalties == nil {
		penalties = defaultPenalties
		if o.Scale < 0.2 {
			penalties = []float64{0, 2, 3.5} // benches skip the dense middle
		}
	}
	// One grid covers the whole sweep: the mesh baseline, then FSOI at
	// every penalty, all mutually independent.
	cfgs := []system.Config{o.config(system.NetMesh, 16)}
	for _, pen := range penalties {
		cfg := o.config(system.NetFSOI, 16)
		cfg.Fault = base
		cfg.Fault.MarginPenaltyDB = pen
		cfgs = append(cfgs, cfg)
	}
	ms, wedged := runSuite(o, o.suite(), cfgs...)
	mesh, points := ms[0], ms[1:]
	t := stats.NewTable("penalty (dB)", "speedup", "meta coll", "data coll",
		"retrans/pkt", "bit errs", "timeouts", "finished")
	vals := map[string]float64{}
	var b strings.Builder
	for p, pen := range penalties {
		var metaColl, dataColl, retrans []float64
		var bitErrs, timeouts int64
		finished := true
		for _, m := range points[p] {
			metaColl = append(metaColl, m.FSOI.CollisionRate(core.LaneMeta))
			dataColl = append(dataColl, m.FSOI.CollisionRate(core.LaneData))
			retrans = append(retrans, m.FSOI.RetransmissionRate(core.LaneData))
			if m.FaultCounters != nil {
				bitErrs += m.FaultCounters.Get("bit_errors")
				timeouts += m.FaultCounters.Get("timeout_retransmits")
			}
			finished = finished && m.Finished
		}
		sp := stats.GeoMean(speedups(points[p], mesh))
		fin := "yes"
		if !finished {
			fin = "NO"
		}
		t.AddRow(fmt.Sprintf("%.1f", pen), fmt.Sprintf("%.3f", sp),
			fmt.Sprintf("%.4f", mean(metaColl)), fmt.Sprintf("%.4f", mean(dataColl)),
			fmt.Sprintf("%.3f", mean(retrans)), fmt.Sprint(bitErrs),
			fmt.Sprint(timeouts), fin)
		key := fmt.Sprintf("p%.1f", pen)
		vals["speedup_"+key] = sp
		vals["data_coll_"+key] = mean(dataColl)
		vals["retrans_"+key] = mean(retrans)
		vals["bit_errors_"+key] = float64(bitErrs)
		if finished {
			vals["finished_"+key] = 1
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nmesh baseline is immune: electrical wires lose no optical margin.\n")
	b.WriteString("header errors surface as misdetected collisions (PID/~PID), payload errors\n")
	fsoi := o.config(system.NetFSOI, 16).FSOI
	fmt.Fprintf(&b, "as CRC-caught silent retransmissions; both ride the W=%g/B=%g backoff.\n", fsoi.WindowW, fsoi.BackoffB)
	return Result{
		Title:      "Fault injection: performance vs eroded link margin",
		Text:       b.String(),
		Values:     vals,
		Unfinished: wedged,
	}
}
