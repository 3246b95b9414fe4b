package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// sweepDef declares one sweep workload's cell universe. Every cell is
// workload × topology × (mechanism, policy) at one network size.
type sweepDef struct {
	workloads []string
	topos     []topology.Kind
	size      exp.NetworkSize
	mechs     []mechPolicy
	warmup    sim.Duration
	simTime   sim.Duration
	// jobCells is how many cells one submitted sweep job holds.
	jobCells int
}

type mechPolicy struct {
	mech   exp.Mech
	policy core.PolicyKind
	alpha  float64
}

// sweeps are the two sweep workloads. The event census that motivated
// them: on sweep-deep, link transmit-done and deliver events are over
// 90% of all events and ROO off-checks none; on sweep-shallow off-checks
// are about a quarter of events, DRAM events about a sixth, and the
// management core runs epochs. The shallow cells span two 100 us epochs.
var sweeps = map[string]sweepDef{
	"sweep-deep": {
		workloads: []string{"mixB", "mg.D", "cg.D", "is.D"},
		topos:     []topology.Kind{topology.DaisyChain},
		size:      exp.Big,
		mechs:     []mechPolicy{{exp.MechFP, core.PolicyNone, 0}, {exp.MechVWL, core.PolicyNone, 0}},
		warmup:    12500 * sim.Nanosecond,
		simTime:   50 * sim.Microsecond,
		jobCells:  2,
	},
	"sweep-shallow": {
		workloads: []string{"sp.D", "mixD", "mixE", "mixC"},
		topos:     []topology.Kind{topology.TernaryTree, topology.Star, topology.DDRxLike},
		size:      exp.Small,
		mechs: []mechPolicy{
			{exp.MechVWLROO, core.PolicyAware, 0.05},
			{exp.MechROO, core.PolicyUnaware, 0.05},
		},
		warmup:   25 * sim.Microsecond,
		simTime:  200 * sim.Microsecond,
		jobCells: 4,
	},
}

// setupReps is how many times a run sets up before its measured window.
// It sets up again every setupEvery inside the window, between jobs, and
// setup_s is the median of all of them: the host's speed drifts over
// seconds, and set-ups spread over the run sample it across the run
// rather than in the half second before the window.
const (
	setupReps  = 3
	setupEvery = 2 * time.Second
)

// poolJobs is the exp pool's worker count: the benchmark host's nproc,
// held at 2 so that runs on larger hosts stay comparable.
func poolJobs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// sweepCells returns the workload's cell universe with the seed as every
// cell's SeedSalt.
func sweepCells(name string, seed uint64) []exp.Spec {
	def := sweeps[name]
	var specs []exp.Spec
	for _, w := range def.workloads {
		p, err := workload.ByName(w)
		if err != nil {
			panic(err) // the table above names built-in profiles only
		}
		for _, topo := range def.topos {
			for _, mp := range def.mechs {
				specs = append(specs, exp.Spec{
					Workload: p, Topology: topo, Size: def.size,
					Mech: mp.mech, Policy: mp.policy, Alpha: mp.alpha,
					Warmup: def.warmup, SimTime: def.simTime, SeedSalt: seed,
				})
			}
		}
	}
	return specs
}

func modeledUS(s exp.Spec) float64 {
	return float64(s.Warmup+s.SimTime) / float64(sim.Microsecond)
}

// sweepState is what a sweep run has learned about its cells.
type sweepState struct {
	b      *bench
	cells  []exp.Spec
	full   map[int]string // first full digest seen per cell
	model  map[int]string // first model digest seen per cell
	pooled map[int]bool   // cells the pool simulated in the window
}

// checkCell verifies one result of cell i: its power breakdown is
// consistent, it matches every earlier result of the same cell, and on
// the default seed it matches the committed digest.
func (st *sweepState) checkCell(i int, res exp.Result) bool {
	key := st.cells[i].Key()
	if err := res.Power.Check(); err != nil {
		st.b.mismatch("%s: power breakdown: %v", key, err)
		return false
	}
	md := modelDigest(res)
	if prev, ok := st.model[i]; ok && prev != md {
		st.b.mismatch("%s: model digest %s differs from an earlier run's %s", key, md, prev)
		return false
	}
	st.model[i] = md
	if st.b.seed == defaultSeed {
		if want, ok := st.b.digests[key]; !ok || want != md {
			st.b.mismatch("%s: model digest %s, committed %q", key, md, want)
			return false
		}
	}
	fd, err := fullDigest(res)
	if err != nil {
		st.b.mismatch("%v", err)
		return false
	}
	if prev, ok := st.full[i]; ok && prev != fd {
		st.b.mismatch("%s: result differs between two simulations of the same spec", key)
		return false
	}
	st.full[i] = fd
	return true
}

// setupSweep builds the specs and runs one untimed warm cell; it returns
// the state and its wall time.
func setupSweep(b *bench) (*sweepState, float64, error) {
	t0 := time.Now()
	st := &sweepState{
		b: b, cells: sweepCells(b.workload, b.seed),
		full: map[int]string{}, model: map[int]string{}, pooled: map[int]bool{},
	}
	results, errs := exp.RunSpecsAllCtx(context.Background(), st.cells[:1], poolJobs())
	if errs[0] != nil {
		return nil, 0, fmt.Errorf("warm cell %s: %w", st.cells[0].Key(), errs[0])
	}
	elapsed := time.Since(t0).Seconds()
	b.op(!st.checkCell(0, results[0]))
	return st, elapsed, nil
}

func runSweep(b *bench) error {
	var st *sweepState
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		s, secs, err := setupSweep(b)
		if err != nil {
			return err
		}
		st, setups = s, append(setups, secs)
	}
	if b.trace {
		return tracedSweep(b, st)
	}
	return timedSweep(b, st, setups)
}

// timedSweep is the untraced measurement: a closed loop of sweep jobs
// for the run's wall time, then a traced re-run of every cell the pool
// simulated, which must reproduce the pool's results exactly. A job is
// a few cells run as one exp pool batch. Jobs walk the cell universe in
// seeded shuffles, so every cycle through it does the same work;
// throughputs are medians over cycles. Set-ups between jobs add to
// setups and stay outside every job's time.
func timedSweep(b *bench, st *sweepState, setups []float64) error {
	def := sweeps[b.workload]
	rng := sim.NewRNG(b.seed*0x9E3779B97F4A7C15 + 1)
	var order []int
	var lats, simRates, jobRates []float64
	var cycUS, cycBusy float64
	cycJobs := 0
	ctx := context.Background()
	rss := startRSSMonitor()
	deadline := time.Now().Add(b.seconds)
	lastSetup := time.Now()
	for time.Now().Before(deadline) {
		if time.Since(lastSetup) >= setupEvery {
			_, secs, err := setupSweep(b)
			if err != nil {
				return err
			}
			setups, lastSetup = append(setups, secs), time.Now()
		}
		if len(order) == 0 {
			if cycJobs > 0 {
				simRates = append(simRates, cycUS/cycBusy)
				jobRates = append(jobRates, float64(cycJobs)/cycBusy)
				cycUS, cycBusy, cycJobs = 0, 0, 0
			}
			order = pickCells(rng, len(st.cells), len(st.cells))
		}
		cells := order[:def.jobCells]
		order = order[def.jobCells:]
		specs := make([]exp.Spec, len(cells))
		for k, c := range cells {
			specs[k] = st.cells[c]
		}
		t0 := time.Now()
		results, errs := exp.RunSpecsAllCtx(ctx, specs, poolJobs())
		lat := time.Since(t0).Seconds()
		ok := true
		for k, res := range results {
			if errs[k] != nil {
				fmt.Fprintf(os.Stderr, "perfbench: cell %s: %v\n", specs[k].Key(), errs[k])
				ok = false
				continue
			}
			ok = st.checkCell(cells[k], res) && ok
			st.pooled[cells[k]] = true
			cycUS += modeledUS(specs[k])
		}
		b.op(!ok)
		lats = append(lats, lat*1e3)
		cycBusy += lat
		cycJobs++
	}
	peak, err := rss.finish()
	if err != nil {
		return err
	}
	if len(simRates) == 0 {
		return fmt.Errorf("the run did not complete one cycle through the %d cells", len(st.cells))
	}
	b.set("setup_s", median(setups))
	b.extra["setup_samples"] = setups
	b.set("sim_us_per_s", median(simRates))
	b.set("jobs_per_s", median(jobRates))
	b.set("peak_rss_mb", peak)
	b.extra["cycles"] = len(simRates)
	if err := b.timing("job_ms", lats); err != nil {
		return err
	}

	tr := newTracer()
	for i := range st.cells {
		if !st.pooled[i] {
			continue
		}
		res, _, err := runTraced(st.cells[i], tr, i)
		if err != nil {
			return err
		}
		b.op(!st.checkCell(i, res))
	}
	return nil
}

// pickCells draws n distinct cell indices out of universe.
func pickCells(rng *sim.RNG, universe, n int) []int {
	perm := make([]int, universe)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(universe-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n]
}
